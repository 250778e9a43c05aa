package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

func TestNilSpanIsNoOp(t *testing.T) {
	var s *Span
	if c := s.Child("x"); c != nil {
		t.Fatalf("nil.Child = %v, want nil", c)
	}
	s.End()
	s.EndDur(5)
	s.SetAttr("k", 1)
	s.Graft(&SpanJSON{Name: "x"})
	var tr *Trace
	if tr.ID() != "" || tr.Root() != nil || tr.JSON() != nil {
		t.Fatal("nil trace accessors must be zero")
	}
}

func TestSpanFromBareContext(t *testing.T) {
	if s := SpanFromContext(context.Background()); s != nil {
		t.Fatalf("bare context span = %v, want nil", s)
	}
	// Attaching a nil span must not wrap the context (zero-alloc contract).
	ctx := context.Background()
	if got := ContextWithSpan(ctx, nil); got != ctx {
		t.Fatal("ContextWithSpan(nil) must return ctx unchanged")
	}
}

func TestTraceTreeJSON(t *testing.T) {
	tr := NewTrace("cafe", "/query")
	root := tr.Root()
	a := root.Child("admission")
	a.SetAttr("grant", 2)
	a.End()
	b := root.Child("execute")
	n := b.Child("DS1 scan shipdate")
	n.SetAttr("rows", int64(100))
	n.EndDur(1234)
	b.End()
	root.End()

	j := tr.JSON()
	if j.ID != "cafe" {
		t.Fatalf("id = %q", j.ID)
	}
	if j.Root.Name != "/query" || len(j.Root.Children) != 2 {
		t.Fatalf("root = %+v", j.Root)
	}
	if j.Root.Children[0].Name != "admission" || j.Root.Children[0].Attrs["grant"] != 2 {
		t.Fatalf("admission span = %+v", j.Root.Children[0])
	}
	node := j.Root.Find(func(s *SpanJSON) bool { return s.Name == "DS1 scan shipdate" })
	if node == nil || node.DurNS != 1234 {
		t.Fatalf("node span = %+v", node)
	}
	// Strict nesting at the sequential level: root wall covers its children.
	if j.Root.DurNS < j.Root.Children[0].DurNS+j.Root.Children[1].DurNS {
		t.Fatalf("root %dns < children sum", j.Root.DurNS)
	}
	// Round-trips through encoding/json (the response embedding).
	raw, err := json.Marshal(j)
	if err != nil {
		t.Fatal(err)
	}
	var back TraceJSON
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.ID != "cafe" || back.Root.Children[1].Children[0].Name != "DS1 scan shipdate" {
		t.Fatalf("round trip = %+v", back)
	}
}

func TestSpanGraft(t *testing.T) {
	tr := NewTrace("", "/join")
	sh := tr.Root().Child("shard 0")
	sh.Graft(&SpanJSON{Name: "/join", DurNS: 42, Children: []*SpanJSON{{Name: "admission", DurNS: 1}}})
	sh.End()
	tr.Root().End()
	j := tr.JSON()
	if len(j.ID) != 16 {
		t.Fatalf("generated id %q, want 16 hex chars", j.ID)
	}
	remote := j.Root.Children[0].Children[0]
	if remote.Name != "/join" || remote.DurNS != 42 || remote.Children[0].Name != "admission" {
		t.Fatalf("grafted sub-tree = %+v", remote)
	}
}

func TestConcurrentChildren(t *testing.T) {
	tr := NewTrace("", "root")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c := tr.Root().Child("c")
				c.SetAttr("i", j)
				c.End()
			}
		}()
	}
	wg.Wait()
	tr.Root().End()
	if got := len(tr.JSON().Root.Children); got != 800 {
		t.Fatalf("children = %d, want 800", got)
	}
}

func TestUnendedSpanRendersElapsed(t *testing.T) {
	tr := NewTrace("", "root")
	tr.Root().Child("open")
	time.Sleep(time.Millisecond)
	j := tr.JSON()
	if j.Root.Children[0].DurNS <= 0 {
		t.Fatalf("open span duration = %d, want elapsed > 0", j.Root.Children[0].DurNS)
	}
}

func TestLoggerJSONLines(t *testing.T) {
	var buf bytes.Buffer
	lg := NewLogger(&buf).With("app", "test")
	lg.Info("served", "trace_id", "abc", "status", 200)
	lg.Error("boom", "err", "nope")
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	if len(lines) != 2 {
		t.Fatalf("lines = %d", len(lines))
	}
	var doc map[string]any
	if err := json.Unmarshal(lines[0], &doc); err != nil {
		t.Fatalf("line 1 not JSON: %v", err)
	}
	if doc["level"] != "info" || doc["msg"] != "served" || doc["app"] != "test" || doc["trace_id"] != "abc" {
		t.Fatalf("line 1 = %v", doc)
	}
	if err := json.Unmarshal(lines[1], &doc); err != nil {
		t.Fatalf("line 2 not JSON: %v", err)
	}
	if doc["level"] != "error" || doc["err"] != "nope" {
		t.Fatalf("line 2 = %v", doc)
	}
	// Nil logger is a no-op.
	var nl *Logger
	nl.Info("dropped")
	nl.With("k", "v").Error("dropped")
}

// ID returns the trace id.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}
