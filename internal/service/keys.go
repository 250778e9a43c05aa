package service

import (
	"strconv"

	"matstore"
)

// The result cache's keys: each canonicalizes a query shape into one string,
// every user-supplied name length-prefixed. The shape includes its candidate
// strategies: a named strategy is a list of one, an advised request lists
// every candidate, so an advised request is its own cached shape, looked up
// before anything is built or priced, and never answered by (or answering) a
// named strategy's entry. The executor's options are fixed per server and
// parallelism is a run-time argument, not part of the shape, so both stay out
// of the key.

// keyStr appends one user-supplied string length-prefixed, so names
// containing the key's own delimiters can never make two different request
// shapes collide on one entry (a collision would skip validation and serve
// the wrong cached result).
func keyStr(b []byte, s string) []byte {
	b = strconv.AppendInt(b, int64(len(s)), 10)
	b = append(b, ':')
	b = append(b, s...)
	return append(b, ';')
}

// keyList appends a name list with its arity, length-prefixing each element.
func keyList(b []byte, items []string) []byte {
	b = strconv.AppendInt(b, int64(len(items)), 10)
	b = append(b, '[')
	for _, s := range items {
		b = keyStr(b, s)
	}
	return append(b, ']')
}

// keyStrategies appends a candidate strategy list, each followed by ',', then
// '|'.
func keyStrategies[S ~uint8](b []byte, ss []S) []byte {
	for _, s := range ss {
		b = strconv.AppendInt(b, int64(s), 10)
		b = append(b, ',')
	}
	return append(b, '|')
}

// keyPred appends a predicate as its operator and two bounds, then end.
func keyPred(b []byte, p matstore.Predicate, end byte) []byte {
	b = strconv.AppendInt(b, int64(p.Op), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, p.A, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, p.B, 10)
	return append(b, end)
}

// selectKey canonicalizes a selection/aggregation query shape. Filter order
// is semantically significant (it decides pipelined plan shape and fusion
// groups), so it is preserved, not sorted.
func selectKey(proj string, q matstore.Query, strats ...matstore.Strategy) string {
	b := make([]byte, 0, 128)
	b = append(b, "s|"...)
	b = keyStrategies(b, strats)
	b = keyStr(b, proj)
	b = keyList(b, q.Output)
	b = keyStr(b, q.GroupBy)
	b = keyStr(b, q.AggCol)
	b = append(b, "fn="...)
	b = strconv.AppendInt(b, int64(q.Agg), 10)
	b = append(b, '|')
	for _, f := range q.Filters {
		b = keyStr(b, f.Col)
		b = keyPred(b, f.Pred, ';')
	}
	return string(b)
}

// joinKey canonicalizes a join query shape.
func joinKey(left, right string, q matstore.JoinQuery, rss ...matstore.RightStrategy) string {
	b := make([]byte, 0, 128)
	b = append(b, "j|"...)
	b = keyStrategies(b, rss)
	b = keyStr(b, left)
	b = keyStr(b, right)
	b = keyStr(b, q.LeftKey)
	b = keyPred(b, q.LeftPred, '|')
	b = keyList(b, q.LeftOutput)
	b = keyStr(b, q.RightKey)
	b = keyList(b, q.RightOutput)
	return string(b)
}
