package multicol

import (
	"testing"

	"matstore/internal/encoding"
	"matstore/internal/positions"
)

func rangeOf(s, e int64) positions.Range { return positions.Range{Start: s, End: e} }

func TestAttachAndLookup(t *testing.T) {
	m := New(rangeOf(0, 4))
	if _, ok := m.Mini("a"); ok {
		t.Error("a new multi-column holds a mini-column")
	}
	mini := encoding.PlainMiniFromValues(0, []int64{1, 2, 3, 4})
	m.Attach("a", mini)
	got, ok := m.Mini("a")
	if !ok || got != encoding.MiniColumn(mini) {
		t.Error("Mini(a) lookup failed")
	}
	if _, ok := m.Mini("b"); ok {
		t.Error("Mini(b) should not exist")
	}
	// Attaching again replaces.
	again := encoding.PlainMiniFromValues(0, []int64{9, 9, 9, 9})
	m.Attach("a", again)
	if got, _ := m.Mini("a"); got != encoding.MiniColumn(again) {
		t.Error("re-attaching a did not replace its mini-column")
	}
}

func TestAttachMismatchedCoverPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched mini-column cover accepted")
		}
	}()
	m := New(rangeOf(0, 4))
	m.Attach("a", encoding.PlainMiniFromValues(0, []int64{1, 2}))
}
