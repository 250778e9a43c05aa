// Package faults is a site-keyed failpoint registry for fault-injection
// testing. Production code calls Check at named sites; tests and the csserve
// -faults flag arm sites with a Failpoint describing what to inject: a hard
// error or a delay. With no sites armed the hot-path cost is one atomic load,
// so the hooks stay compiled into release binaries and the fault matrix runs
// against the real code.
// Sites lists the sites production code checks.
package faults

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Sites are the wired sites, the only ones Parse arms:
//
//	spill.read   – pass B of a Grace join rebuilding a cold partition from
//	               the stored key column
//	mem.reserve  – allocation-pressure hook in the service governor's admit:
//	               a join's full byte estimate is refused as if it did not fit
var Sites = []string{"spill.read", "mem.reserve"}

// ErrInjected is the default error returned by armed Error sites.
var ErrInjected = errors.New("faults: injected failure")

// Mode selects what an armed site injects.
type Mode uint8

const (
	// Error makes Check return ErrInjected (or Failpoint.Err).
	Error Mode = iota
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
	// Err overrides ErrInjected for Error.
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

// Parse arms sites from a csserve-style spec: comma-separated
// "site=mode[:after]" clauses where mode is error|slow, e.g.
// "spill.read=error:3,mem.reserve=slow". Every site must be one of Sites; a
// spec with any bad clause arms nothing.
func Parse(spec string) error {
	armed := map[string]Failpoint{}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, rest, ok := strings.Cut(clause, "=")
		if !ok || name == "" {
			return fmt.Errorf("faults: bad clause %q (want site=mode[:after])", clause)
		}
		if !slices.Contains(Sites, name) {
			return fmt.Errorf("faults: unknown site %q in %q (wired sites: %s)", name, clause, strings.Join(Sites, " "))
		}
		modeStr, afterStr, _ := strings.Cut(rest, ":")
		var fp Failpoint
		switch modeStr {
		case "error":
			fp.Mode = Error
		case "slow":
			fp.Mode = Slow
		default:
			return fmt.Errorf("faults: bad mode %q in %q (want error|slow)", modeStr, clause)
		}
		if afterStr != "" {
			n, err := strconv.ParseInt(afterStr, 10, 64)
			if err != nil || n < 0 {
				return fmt.Errorf("faults: bad after count in %q", clause)
			}
			fp.After = n
		}
		armed[name] = fp
	}
	for name, fp := range armed {
		Enable(name, fp)
	}
	return nil
}
