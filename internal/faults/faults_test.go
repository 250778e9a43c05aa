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
	custom := errors.New("disk gremlin")
	Enable("x", Failpoint{Mode: Error, Err: custom})
	if err := Check("x"); !errors.Is(err, custom) {
		t.Fatalf("error site with a custom error: %v", err)
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
}

func TestParse(t *testing.T) {
	Reset()
	defer Reset()
	if err := Parse(" spill.read=error:5 ,mem.reserve=slow"); err != nil {
		t.Fatal(err)
	}
	armed := Armed()
	if len(armed) != 2 || armed[0] != "mem.reserve" || armed[1] != "spill.read" {
		t.Fatalf("Armed = %v", armed)
	}
	if err := Check("mem.reserve"); err != nil {
		t.Fatalf("parsed slow site: %v", err)
	}
	// spill.read has After=5: first five hits pass.
	for i := 0; i < 5; i++ {
		if err := Check("spill.read"); err != nil {
			t.Fatalf("spill.read fired early: %v", err)
		}
	}
	if err := Check("spill.read"); !errors.Is(err, ErrInjected) {
		t.Fatalf("spill.read should fire on hit 6: %v", err)
	}
	for _, bad := range []string{"noequals", "spill.read=banana", "spill.read=short", "spill.read=error:-1", "=error"} {
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
	for _, spec := range []string{"spill.raed=error", "spill.read=slow,spill.write=error"} {
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
