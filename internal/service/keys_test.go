package service

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"matstore"
)

// fmtSelectKey, fmtJoinKey and fmtJoinShape are the keys and the join shape
// as they were built with fmt, the keys over a candidate strategy list; the
// appenders must produce the same strings.
func fmtKeyStr(b *strings.Builder, s string) { fmt.Fprintf(b, "%d:%s;", len(s), s) }

func fmtKeyList(b *strings.Builder, items []string) {
	fmt.Fprintf(b, "%d[", len(items))
	for _, s := range items {
		fmtKeyStr(b, s)
	}
	b.WriteString("]")
}

func fmtStrategies[S ~uint8](b *strings.Builder, ss []S) {
	for _, s := range ss {
		fmt.Fprintf(b, "%d,", s)
	}
	b.WriteString("|")
}

func fmtSelectKey(proj string, q matstore.Query, ss ...matstore.Strategy) string {
	var b strings.Builder
	b.WriteString("s|")
	fmtStrategies(&b, ss)
	fmtKeyStr(&b, proj)
	fmtKeyList(&b, q.Output)
	fmtKeyStr(&b, q.GroupBy)
	fmtKeyStr(&b, q.AggCol)
	fmt.Fprintf(&b, "fn=%d|", q.Agg)
	for _, f := range q.Filters {
		fmtKeyStr(&b, f.Col)
		fmt.Fprintf(&b, "%d %d %d;", f.Pred.Op, f.Pred.A, f.Pred.B)
	}
	return b.String()
}

func fmtJoinKey(left, right string, q matstore.JoinQuery, rss ...matstore.RightStrategy) string {
	var b strings.Builder
	b.WriteString("j|")
	fmtStrategies(&b, rss)
	fmtKeyStr(&b, left)
	fmtKeyStr(&b, right)
	fmtKeyStr(&b, q.LeftKey)
	fmt.Fprintf(&b, "%d %d %d|", q.LeftPred.Op, q.LeftPred.A, q.LeftPred.B)
	fmtKeyList(&b, q.LeftOutput)
	fmtKeyStr(&b, q.RightKey)
	fmtKeyList(&b, q.RightOutput)
	return b.String()
}

func fmtJoinShape(r JoinRequest) string {
	sh := fmt.Sprintf("join %s x %s on %s=%s", r.Left, r.Right, r.LeftKey, r.RightKey)
	if len(r.Where) > 0 {
		sh += " where " + strings.Join(r.Where, ",")
	}
	return sh
}

// TestCacheKeysMatchFmt: the cache keys and the join shape are built without
// fmt, into the very strings fmt built — names holding the keys' delimiters,
// empty lists, negative and extreme constants and advised candidate lists
// included — and an advised shape never shares a key with the same shape
// under any named strategy.
func TestCacheKeysMatchFmt(t *testing.T) {
	between := matstore.InRange(math.MinInt64, math.MaxInt64)
	selects := []struct {
		proj  string
		q     matstore.Query
		strat matstore.Strategy
	}{
		{"lineitem", matstore.Query{Output: []string{"shipdate", "linenum"},
			Filters: []matstore.Filter{{Col: "shipdate", Pred: matstore.LessThan(400)}}}, matstore.LMParallel},
		{"lineitem", matstore.Query{GroupBy: "returnflag", AggCol: "quantity", Agg: matstore.Avg,
			Filters: []matstore.Filter{{Col: "a;b", Pred: between}, {Col: "", Pred: matstore.AtLeast(-7)}}}, matstore.EMPipelined},
		{"", matstore.Query{}, matstore.EMParallel},
		{"p|1:x;", matstore.Query{Output: []string{"2[", "]", "é"}}, matstore.LMPipelined},
	}
	for _, c := range selects {
		if got, want := selectKey(c.proj, c.q, c.strat), fmtSelectKey(c.proj, c.q, c.strat); got != want {
			t.Errorf("selectKey = %q, fmt built %q", got, want)
		}
		advised := selectKey(c.proj, c.q, matstore.AdviseOrder...)
		if want := fmtSelectKey(c.proj, c.q, matstore.AdviseOrder...); advised != want {
			t.Errorf("advised selectKey = %q, fmt built %q", advised, want)
		}
		for _, s := range matstore.Strategies {
			if named := selectKey(c.proj, c.q, s); named == advised {
				t.Errorf("advised selectKey equals %v's: %q", s, named)
			}
		}
	}
	joins := []struct {
		left, right string
		q           matstore.JoinQuery
		rs          matstore.RightStrategy
	}{
		{"orders", "customer", matstore.JoinQuery{LeftKey: "custkey", RightKey: "custkey", LeftPred: matstore.MatchAll,
			LeftOutput: []string{"shipdate"}, RightOutput: []string{"nationcode"}}, matstore.RightMaterialized},
		{"o;", "c|", matstore.JoinQuery{LeftKey: "k", RightKey: "", LeftPred: between}, matstore.RightMultiColumn},
		{"", "", matstore.JoinQuery{LeftPred: matstore.LessThan(-1), RightOutput: []string{"1:", ""}}, matstore.RightSingleColumn},
	}
	for _, c := range joins {
		if got, want := joinKey(c.left, c.right, c.q, c.rs), fmtJoinKey(c.left, c.right, c.q, c.rs); got != want {
			t.Errorf("joinKey = %q, fmt built %q", got, want)
		}
		advised := joinKey(c.left, c.right, c.q, matstore.JoinStrategies...)
		if want := fmtJoinKey(c.left, c.right, c.q, matstore.JoinStrategies...); advised != want {
			t.Errorf("advised joinKey = %q, fmt built %q", advised, want)
		}
		for _, rs := range matstore.JoinStrategies {
			if named := joinKey(c.left, c.right, c.q, rs); named == advised {
				t.Errorf("advised joinKey equals %v's: %q", rs, named)
			}
		}
		r := JoinRequest{Left: c.left, Right: c.right, LeftKey: c.q.LeftKey, RightKey: c.q.RightKey}
		for _, where := range [][]string{nil, {"custkey<300"}, {"a=1", "b%d"}} {
			r.Where = where
			if got, want := r.shape(), fmtJoinShape(r); got != want {
				t.Errorf("JoinRequest.shape = %q, fmt built %q", got, want)
			}
		}
	}
}
