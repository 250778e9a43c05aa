package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"matstore/internal/operators"
)

// answerOf holds resp's rows and row ids as an answer of one chunk, the row
// ids (when resp has any) its last column.
func answerOf(resp *QueryResponse) *answer {
	a := &answer{QueryResponse: *resp, n: len(resp.Rows), rowID: -1, nullRows: resp.Rows == nil}
	a.Rows, a.RowIDs = nil, nil
	if resp.RowIDs != nil {
		a.rowID = len(resp.Columns)
	}
	ch := newChunk(a.n, a.width())
	for i, row := range resp.Rows {
		for c := range resp.Columns {
			ch[c][i] = row[c]
		}
		if a.rowID >= 0 {
			ch[a.rowID][i] = resp.RowIDs[i]
		}
	}
	a.chunks = [][][]int64{ch}
	return a
}

// WriteQueryResponse writes resp as the query endpoints write their replies:
// its rows through the hand writer, every other field through encoding/json.
func WriteQueryResponse(w http.ResponseWriter, resp *QueryResponse) {
	answerOf(resp).writeReply(w)
}

// encodePartial is what an engine sends a coordinator for a.
func encodePartial(a *answer) []byte {
	rec := httptest.NewRecorder()
	a.writePartial(rec)
	return rec.Body.Bytes()
}

// FuzzDecodePartial: any body either decodes to a partial that re-encodes to
// exactly its bytes, or is refused with an error; none panics. Seeds are the
// partials below and testdata/fuzz/FuzzDecodePartial.
func FuzzDecodePartial(f *testing.F) {
	seeds := []*QueryResponse{
		{Columns: []string{"shipdate", "linenum"}, Rows: [][]int64{{1, 2}, {-3, 4}, {math.MinInt64, math.MaxInt64}},
			RowCount: 7, Checksum: -11, Strategy: "LM-parallel", EstCostUS: 12.5},
		{Columns: []string{"custkey"}, Rows: [][]int64{{9}, {0}}, RowIDs: []int64{4, 17}, Workers: 2},
		{Columns: []string{"k", "v"}, Groups: []operators.GroupStats{{Key: 1, Sum: 2, Count: 3, Min: 4, Max: 5}}},
		{Columns: []string{}, Rows: [][]int64{{}, {}}, RowIDs: []int64{1, 2}},
		{Columns: []string{"a"}, Rows: [][]int64{}},
	}
	for _, s := range seeds {
		f.Add(encodePartial(answerOf(s)))
	}
	roundTrip := func(t *testing.T, body []byte) {
		a, err := decodePartial(partialContentType, body)
		if err != nil {
			return
		}
		if again := encodePartial(a); !bytes.Equal(again, body) {
			t.Fatalf("decoded partial re-encodes differently:\n got %q\nfrom %q", again, body)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		roundTrip(t, body)
		// The same body with its checksum made right, so that the arrays are
		// parsed whatever the fuzzer did to them.
		end := bytes.IndexByte(body, '\n') + 1
		var h partialHeader
		if end == 0 || json.Unmarshal(body[:end], &h) != nil {
			return
		}
		h.CRC = crc32.Checksum(body[end:], castagnoli)
		var fixed bytes.Buffer
		if encodeJSON(&fixed, &h) == nil {
			roundTrip(t, append(fixed.Bytes(), body[end:]...))
		}
	})
}

// TestDecodePartialRoundTrip: the writer's partials decode to the columns, row
// ids and fields they were written from.
func TestDecodePartialRoundTrip(t *testing.T) {
	resp := &QueryResponse{Columns: []string{"a", "b"}, Rows: [][]int64{{1, -2}, {math.MinInt64, math.MaxInt64}},
		RowIDs: []int64{5, 9}, RowCount: 40, Checksum: 3, Strategy: "EM-parallel", Probes: 8}
	a, err := decodePartial(partialContentType, encodePartial(answerOf(resp)))
	if err != nil {
		t.Fatal(err)
	}
	if a.n != 2 || a.rowID != 2 || a.RowCount != 40 || a.Checksum != 3 || a.Strategy != "EM-parallel" || a.Probes != 8 {
		t.Fatalf("decoded header %+v, n=%d rowID=%d", a.QueryResponse, a.n, a.rowID)
	}
	for c, want := range [][]int64{{1, math.MinInt64}, {-2, math.MaxInt64}, {5, 9}} {
		if got := a.column(c); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("column %d = %v, want %v", c, got, want)
		}
	}
}

// discard is a ResponseWriter that keeps nothing.
type discard struct{ h http.Header }

func (d discard) Header() http.Header         { return d.h }
func (d discard) Write(b []byte) (int, error) { return len(b), nil }
func (d discard) WriteHeader(int)             {}

// BenchmarkWriteQueryResponse: a reply of 0, 100 (serve_hot's) and 1,000 rows
// (coord_mixed's) of three columns, written by the hand writer from its chunk
// and by the reference — encoding/json over the same QueryResponse with its
// rows already built, as every reply was written before.
func BenchmarkWriteQueryResponse(b *testing.B) {
	for _, n := range []int{0, 100, 1000} {
		resp := &QueryResponse{Columns: []string{"shipdate", "linenum", "quantity"}, Rows: make([][]int64, n),
			RowCount: 10 * n, Checksum: 123456789, Strategy: "LM-parallel", Wall: 1234567, Workers: 2,
			Morsels: 3, Session: 77, EstCostUS: 1534.25}
		for i := range resp.Rows {
			resp.Rows[i] = []int64{int64(8000 + i), int64(i % 7), int64(100 * i)}
		}
		a := answerOf(resp)
		w := discard{h: http.Header{}}
		b.Run(fmt.Sprintf("hand/rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				a.writeReply(w)
			}
		})
		b.Run(fmt.Sprintf("reference/rows=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				w.Header().Set("Content-Type", "application/json")
				w.WriteHeader(http.StatusOK)
				enc := json.NewEncoder(w)
				enc.SetEscapeHTML(false)
				_ = enc.Encode(resp)
			}
		})
	}
}
