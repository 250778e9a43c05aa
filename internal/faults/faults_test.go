package faults

import (
	"errors"
	"strings"
	"testing"
	"time"
)

func TestUnarmedIsFree(t *testing.T) {
	Reset()
	if err := Check("nope"); err != nil {
		t.Fatalf("unarmed Check: %v", err)
	}
	if n, err := WriteOutcome("nope", 100); n != -1 || err != nil {
		t.Fatalf("unarmed WriteOutcome: n=%d err=%v", n, err)
	}
	if Hits("nope") != 0 {
		t.Fatalf("unarmed site counted hits")
	}
}

func TestErrorModeAndAfter(t *testing.T) {
	Reset()
	defer Reset()
	Enable("x", Failpoint{Mode: Error, After: 2})
	for i := 0; i < 2; i++ {
		if err := Check("x"); err != nil {
			t.Fatalf("hit %d fired early: %v", i+1, err)
		}
	}
	if err := Check("x"); !errors.Is(err, ErrInjected) {
		t.Fatalf("hit 3 should inject, got %v", err)
	}
	if got := Hits("x"); got != 3 {
		t.Fatalf("Hits = %d, want 3", got)
	}
	Disable("x")
	if err := Check("x"); err != nil {
		t.Fatalf("disabled site fired: %v", err)
	}
	// Hit counter survives Disable for post-run assertions.
	if got := Hits("x"); got != 3 {
		t.Fatalf("Hits after disable = %d, want 3", got)
	}
}

func TestShortWrite(t *testing.T) {
	Reset()
	defer Reset()
	custom := errors.New("disk gremlin")
	Enable("w", Failpoint{Mode: ShortWrite, Err: custom})
	n, err := WriteOutcome("w", 64)
	if n != 32 || !errors.Is(err, custom) {
		t.Fatalf("short write: n=%d err=%v, want 32/%v", n, err, custom)
	}
	// Check treats ShortWrite as a plain error.
	if err := Check("w"); !errors.Is(err, custom) {
		t.Fatalf("Check on short-write site: %v", err)
	}
}

func TestSlowMode(t *testing.T) {
	Reset()
	defer Reset()
	Enable("s", Failpoint{Mode: Slow, Delay: 5 * time.Millisecond})
	start := time.Now()
	if err := Check("s"); err != nil {
		t.Fatalf("slow mode errored: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 5*time.Millisecond {
		t.Fatalf("slow mode returned in %v", elapsed)
	}
	if n, err := WriteOutcome("s", 10); n != -1 || err != nil {
		t.Fatalf("slow WriteOutcome should proceed: n=%d err=%v", n, err)
	}
}

func TestParse(t *testing.T) {
	Reset()
	defer Reset()
	if err := Parse("spill.write=error, spill.read=short:5 ,mem.reserve=slow"); err != nil {
		t.Fatal(err)
	}
	armed := Armed()
	if len(armed) != 3 || armed[0] != "mem.reserve" || armed[1] != "spill.read" || armed[2] != "spill.write" {
		t.Fatalf("Armed = %v", armed)
	}
	if err := Check("spill.write"); !errors.Is(err, ErrInjected) {
		t.Fatalf("parsed error site: %v", err)
	}
	// spill.read has After=5: first five hits pass.
	for i := 0; i < 5; i++ {
		if err := Check("spill.read"); err != nil {
			t.Fatalf("spill.read fired early: %v", err)
		}
	}
	if err := Check("spill.read"); err == nil {
		t.Fatal("spill.read should fire on hit 6")
	}
	for _, bad := range []string{"noequals", "spill.write=banana", "spill.write=error:-1", "=error"} {
		if err := Parse(bad); err == nil {
			t.Fatalf("Parse(%q) should fail", bad)
		}
	}
}

// TestParseRejectsUnknownSite: a site no code checks is refused with an error
// naming it and the wired sites, and a spec holding one arms nothing — not
// even its valid clauses.
func TestParseRejectsUnknownSite(t *testing.T) {
	Reset()
	defer Reset()
	for _, spec := range []string{"spill.wrte=error", "spill.read=slow,cache.demote=error"} {
		err := Parse(spec)
		if err == nil {
			t.Fatalf("Parse(%q) armed an unknown site", spec)
		}
		for _, want := range append([]string{"unknown site"}, Sites...) {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("Parse(%q) error %q does not name %q", spec, err, want)
			}
		}
		if armed := Armed(); len(armed) != 0 {
			t.Errorf("Parse(%q) armed %v", spec, armed)
		}
	}
}
