// Package faults is a site-keyed failpoint registry for fault-injection
// testing. Production code calls Check (or WriteOutcome for write paths) at
// named sites; tests and the csserve -faults flag arm sites with a Failpoint
// describing what to inject: a hard error, a short write, or slow IO. With no
// sites armed the hot-path cost is one atomic load, so the hooks stay compiled
// into release binaries and the fault matrix runs against the real code.
//
// Sites currently wired:
//
//	spill.create   – creating a spill partition temp file
//	spill.write    – writing a spill frame (error and short-write modes)
//	spill.read     – reading a spill frame back during the probe
//	cache.demote   – writing a demoted build-cache entry
//	cache.rehydrate– reading a demoted build-cache entry back
//	mem.reserve    – allocation-pressure hook in the service governor's admit:
//	                 a join's full byte estimate is refused as if it did not fit
package faults

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error returned by armed Error/ShortWrite sites.
var ErrInjected = errors.New("faults: injected failure")

// Mode selects what an armed site injects.
type Mode uint8

const (
	// Error makes Check/WriteOutcome return ErrInjected (or Failpoint.Err).
	Error Mode = iota
	// ShortWrite makes WriteOutcome report half the buffer written before
	// failing, so partially-flushed files exist on disk. Check treats it
	// like Error.
	ShortWrite
	// Slow sleeps Failpoint.Delay (default 10ms) and then proceeds.
	Slow
)

// Failpoint describes one armed site.
type Failpoint struct {
	Mode Mode
	// After skips the first After hits: the fault fires from hit After+1 on.
	// Zero fires on every hit.
	After int64
	// Delay is the Slow-mode sleep; zero means 10ms.
	Delay time.Duration
	// Err overrides ErrInjected for Error/ShortWrite.
	Err error
}

type site struct {
	fp   Failpoint
	hits atomic.Int64
}

var (
	mu     sync.Mutex
	sites  = map[string]*site{}
	hits   = map[string]*atomic.Int64{} // survives Disable, for test assertions
	nArmed atomic.Int64
)

// Enable arms a site. Re-enabling replaces the failpoint but keeps the
// cumulative hit counter.
func Enable(name string, fp Failpoint) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; !ok {
		nArmed.Add(1)
	}
	sites[name] = &site{fp: fp}
	if hits[name] == nil {
		hits[name] = &atomic.Int64{}
	}
}

// Disable disarms a site; its hit counter is preserved until Reset.
func Disable(name string) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := sites[name]; ok {
		delete(sites, name)
		nArmed.Add(-1)
	}
}

// Reset disarms every site and clears all hit counters.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	nArmed.Add(-int64(len(sites)))
	sites = map[string]*site{}
	hits = map[string]*atomic.Int64{}
}

// Hits reports how many times an armed site was reached (armed hits only).
func Hits(name string) int64 {
	mu.Lock()
	defer mu.Unlock()
	if h := hits[name]; h != nil {
		return h.Load()
	}
	return 0
}

// Armed reports the armed site names, sorted, for diagnostics.
func Armed() []string {
	mu.Lock()
	defer mu.Unlock()
	out := make([]string, 0, len(sites))
	for name := range sites {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

func lookup(name string) (Failpoint, bool) {
	mu.Lock()
	defer mu.Unlock()
	s, ok := sites[name]
	if !ok {
		return Failpoint{}, false
	}
	hits[name].Add(1)
	n := s.hits.Add(1)
	if n <= s.fp.After {
		return Failpoint{}, false
	}
	return s.fp, true
}

// Check is the generic hook: nil unless the site is armed and past its After
// threshold. Slow mode sleeps and returns nil.
func Check(name string) error {
	if nArmed.Load() == 0 {
		return nil
	}
	fp, fire := lookup(name)
	if !fire {
		return nil
	}
	switch fp.Mode {
	case Slow:
		d := fp.Delay
		if d == 0 {
			d = 10 * time.Millisecond
		}
		time.Sleep(d)
		return nil
	default:
		if fp.Err != nil {
			return fp.Err
		}
		return ErrInjected
	}
}

// WriteOutcome is the write-path hook: for a pending write of size bytes it
// returns (-1, nil) when the write should proceed normally, or (n, err) when
// the caller must write only the first n bytes and fail with err. ShortWrite
// yields n = size/2 so tests exercise truncated frames on disk.
func WriteOutcome(name string, size int) (int, error) {
	if nArmed.Load() == 0 {
		return -1, nil
	}
	fp, fire := lookup(name)
	if !fire {
		return -1, nil
	}
	err := fp.Err
	if err == nil {
		err = ErrInjected
	}
	switch fp.Mode {
	case Slow:
		d := fp.Delay
		if d == 0 {
			d = 10 * time.Millisecond
		}
		time.Sleep(d)
		return -1, nil
	case ShortWrite:
		return size / 2, err
	default:
		return 0, err
	}
}

// Parse arms sites from a csserve-style spec: comma-separated
// "site=mode[:after]" clauses where mode is error|short|slow, e.g.
// "spill.write=error,spill.read=slow:3".
func Parse(spec string) error {
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, "=")
		if !ok || name == "" {
			return fmt.Errorf("faults: bad clause %q (want site=mode[:after])", clause)
		}
		modeStr, afterStr, _ := strings.Cut(rest, ":")
		var fp Failpoint
		switch modeStr {
		case "error":
			fp.Mode = Error
		case "short":
			fp.Mode = ShortWrite
		case "slow":
			fp.Mode = Slow
		default:
			return fmt.Errorf("faults: bad mode %q in %q (want error|short|slow)", modeStr, clause)
		}
		if afterStr != "" {
			n, err := strconv.ParseInt(afterStr, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("faults: bad after count in %q", clause)
			}
			fp.After = n
		}
		Enable(name, fp)
	}
	return nil
}
