package plan

import (
	"strings"
	"testing"

	"matstore/internal/pred"
)

func TestNodeLabelsAndWalk(t *testing.T) {
	ds1 := NewDS1(Col{Name: "a"}, []pred.Predicate{pred.AtLeast(1), pred.LessThan(9)})
	if !ds1.Fused() {
		t.Error("two-predicate DS1 should report fused")
	}
	// The executed conjunction is the simplified form: one interval.
	if got := ds1.Conj.Preds; len(got) != 1 || got[0] != pred.InRange(1, 9) {
		t.Errorf("Conj.Preds = %v", got)
	}
	if !strings.Contains(ds1.label(), "[fused x2]") {
		t.Errorf("label = %q", ds1.label())
	}
	and := NewAND(ds1, NewDS1(Col{Name: "b"}, []pred.Predicate{pred.Equals(3)}))
	root := NewMerge(and, []*Node{NewDS3(Col{Name: "a"}), NewDS3(Col{Name: "b"})}, []string{"a", "b"})
	var kinds []Kind
	Walk(root, func(n *Node) { kinds = append(kinds, n.Kind) })
	want := []Kind{KindMerge, KindAND, KindDS1, KindDS1, KindDS3, KindDS3}
	if len(kinds) != len(want) {
		t.Fatalf("walk visited %v", kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("walk order %v, want %v", kinds, want)
		}
	}
	for _, n := range []*Node{ds1, and, root} {
		if n.PositionsDomain() != (n.Kind != KindMerge) {
			t.Errorf("%v PositionsDomain = %v", n.Kind, n.PositionsDomain())
		}
	}
}

func TestShapeAndRender(t *testing.T) {
	ds1 := NewDS1(Col{Name: "a"}, []pred.Predicate{pred.LessThan(5)})
	ds1.Modeled = Cost{CPU: 10, IO: 2}
	ds1.HasModel = true
	root := NewMerge(ds1, []*Node{NewDS3(Col{Name: "a"})}, []string{"a"})
	root.Modeled = Cost{CPU: 3}
	root.HasModel = true
	p := &Plan{Label: "test", Root: root, Spec: Spec{OutNames: []string{"a"}}}
	shape := p.Shape()
	for _, wantLine := range []string{"test plan", "MERGE out=(a)", "├─ DS1 scan a (a < 5)", "└─ DS3 extract a"} {
		if !strings.Contains(shape, wantLine) {
			t.Errorf("shape missing %q:\n%s", wantLine, shape)
		}
	}
	if strings.Contains(shape, "model:") {
		t.Error("Shape must not include annotations")
	}
	if !strings.Contains(p.Render(), "model: cpu=10µs io=2µs") {
		t.Errorf("Render missing model annotation:\n%s", p.Render())
	}
}
