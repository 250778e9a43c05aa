package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
)

// The coordinator↔shard wire. A coordinator's fan-out asks each shard for
// partialContentType (Accept); an engine answers a 200 /query or /join in
// that form only when asked, and in the client's JSON otherwise. A partial is
// column-major:
//
//	{header}\n
//	[v,v,...]\n    one array per output column, in column order
//	[id,id,...]\n  the row-id array, when the request asked for row ids
//
// The header is the response without its rows and row ids, plus the number
// of rows shown, whether a row-id array follows, and the CRC-32C (Castagnoli)
// of everything after the header's newline. The coordinator decodes the
// header with encoding/json — it is a few hundred bytes — and checks the
// checksum, the array count and every array's length before it parses the
// arrays by hand straight into columns: encoding/json never scans them. A
// partial has one byte form — the header exactly as encodeJSON writes it, each
// integer exactly as strconv.AppendInt writes it — so whatever decodes
// re-encodes to the bytes it came from, and anything else is refused.
const partialContentType = "application/x-matstore-partial"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// answer is a /query or /join response on its way out, or one decoded from a
// shard's partial on its way in: the fields encoding/json writes, and the rows
// shown, held as columns the way a result holds them — the first n rows of a
// chunk list — so that no row is built to be sent.
type answer struct {
	QueryResponse // Rows and RowIDs stay nil: the writers take them from chunks
	// chunks[k][c] is column c of chunk k. Column rowID (-1: none) holds each
	// row's global row id and is sent as the row-id array; the others are
	// Columns, in order.
	chunks [][][]int64
	n      int
	rowID  int
	// nullRows sends the rows as null: a partial aggregation ships its groups
	// instead.
	nullRows bool
}

// partialHeader is the line a partial opens with.
type partialHeader struct {
	QueryResponse        // without rows or row ids
	Shown         int    `json:"shown"`
	HasRowIDs     bool   `json:"has_rowids,omitempty"`
	CRC           uint32 `json:"crc32c"`
}

// newChunk returns width fresh columns of n rows each, cut from one array.
func newChunk(n, width int) [][]int64 {
	vals := make([]int64, n*width)
	ch := make([][]int64, width)
	for c := range ch {
		ch[c] = vals[c*n : (c+1)*n : (c+1)*n]
	}
	return ch
}

// width is the number of columns each chunk holds, the row-id column included.
func (a *answer) width() int {
	if a.rowID >= 0 {
		return len(a.Columns) + 1
	}
	return len(a.Columns)
}

// column returns column c of the rows shown in one array: the chunk's own
// when there is one chunk (every decoded partial), a copy otherwise.
func (a *answer) column(c int) []int64 {
	if len(a.chunks) == 1 {
		return a.chunks[0][c][:a.n]
	}
	out := make([]int64, 0, a.n)
	for _, ch := range a.chunks {
		out = append(out, ch[c][:min(len(ch[c]), a.n-len(out))]...)
	}
	return out
}

// rowsNull is how encoding/json renders a QueryResponse without rows; the
// hand-written rows take its place. Only the field can match: inside a string
// the quotes around rows would be escaped.
var rowsNull = []byte(`"rows":null`)

// writeReply sends the answer as the client's JSON: every field as
// encoding/json renders a QueryResponse (writeJSON), except that the rows are
// written by hand from the chunks, transposed. For encoding/json it sets the
// answer's RowIDs, and its Rows when there is no row to write.
func (a *answer) writeReply(w http.ResponseWriter) {
	if a.rowID >= 0 {
		a.RowIDs = a.column(a.rowID)
	}
	if a.nullRows || a.n == 0 {
		if !a.nullRows {
			a.Rows = [][]int64{}
		}
		writeJSON(w, http.StatusOK, &a.QueryResponse)
		return
	}
	var buf bytes.Buffer
	buf.Grow(512 + a.n*(8*len(a.Columns)+3))
	if err := encodeJSON(&buf, &a.QueryResponse); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	b := buf.Bytes()
	at := bytes.Index(b, rowsNull) + len(`"rows":`)
	head := len(b)
	b = a.appendRows(b)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b[:at])
	_, _ = w.Write(b[head:])
	_, _ = w.Write(b[at+len("null") : head])
}

// writePartial sends the answer as a partial: the data section is written
// first, into the front of the buffer, because the header carries its CRC.
func (a *answer) writePartial(w http.ResponseWriter) {
	b := make([]byte, 0, 512+a.n*(8*a.width()+1))
	for c := range a.width() {
		if c != a.rowID {
			b = a.appendColumn(b, c)
		}
	}
	if a.rowID >= 0 {
		b = a.appendColumn(b, a.rowID)
	}
	data := len(b)
	buf := bytes.NewBuffer(b)
	h := partialHeader{QueryResponse: a.QueryResponse, Shown: a.n, HasRowIDs: a.rowID >= 0,
		CRC: crc32.Checksum(b, castagnoli)}
	if err := encodeJSON(buf, &h); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	b = buf.Bytes()
	w.Header().Set("Content-Type", partialContentType)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(b[data:])
	_, _ = w.Write(b[:data])
}

// appendColumn appends column c of the rows shown as one JSON array and a
// newline.
func (a *answer) appendColumn(b []byte, c int) []byte {
	b = append(b, '[')
	left := a.n
	for _, ch := range a.chunks {
		col := ch[c][:min(len(ch[c]), left)]
		for _, v := range col {
			b = strconv.AppendInt(b, v, 10)
			b = append(b, ',')
		}
		if left -= len(col); left == 0 {
			break
		}
	}
	if a.n > 0 {
		b = b[:len(b)-1] // the last comma
	}
	return append(b, ']', '\n')
}

// appendRows appends the rows shown as a JSON array of row arrays: the
// columns transposed, the row-id column left out.
func (a *answer) appendRows(b []byte) []byte {
	b = append(b, '[')
	left := a.n
	if len(a.Columns) == 0 { // only the row ids were asked for
		for range left {
			b = append(b, "[],"...)
		}
		left = 0
	}
	for _, ch := range a.chunks {
		if left == 0 {
			break
		}
		rows := min(len(ch[0]), left)
		for j := range rows {
			b = append(b, '[')
			for c, col := range ch {
				if c != a.rowID {
					b = strconv.AppendInt(b, col[j], 10)
					b = append(b, ',')
				}
			}
			b[len(b)-1] = ']'
			b = append(b, ',')
		}
		left -= rows
	}
	if a.n > 0 {
		b = b[:len(b)-1]
	}
	return append(b, ']')
}

// encodeJSON appends v to buf exactly as writeJSON sends it: encoding/json
// without HTML escaping, and a newline.
func encodeJSON(buf *bytes.Buffer, v any) error {
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false)
	return enc.Encode(v)
}

// decodePartial parses a shard's 200 reply — its Content-Type and body — into
// an answer of one chunk, whose last column holds the row ids when the partial
// carries them. Anything but a partial in its one byte form is an error, and
// no count the data cannot hold is allocated for.
func decodePartial(contentType string, body []byte) (*answer, error) {
	if contentType != partialContentType {
		return nil, fmt.Errorf("content type %q, want %q", contentType, partialContentType)
	}
	end := bytes.IndexByte(body, '\n') + 1
	if end == 0 {
		return nil, errors.New("no header line")
	}
	var h partialHeader
	if err := json.Unmarshal(body[:end], &h); err != nil {
		return nil, fmt.Errorf("header: %w", err)
	}
	var canon bytes.Buffer
	canon.Grow(end)
	if h.Rows != nil || h.RowIDs != nil || encodeJSON(&canon, &h) != nil || !bytes.Equal(canon.Bytes(), body[:end]) {
		return nil, errors.New("header is not in the partial's form")
	}
	data := body[end:]
	if sum := crc32.Checksum(data, castagnoli); sum != h.CRC {
		return nil, fmt.Errorf("data section checksum %d, header says %d", sum, h.CRC)
	}
	width := len(h.Columns)
	if h.HasRowIDs {
		width++
	}
	// Every value takes at least a digit and a separator.
	n := h.Shown
	if n < 0 || (width == 0 && n > 0) || (width > 0 && n > len(data)/(2*width)) {
		return nil, fmt.Errorf("%d rows of %d arrays cannot fit in %d bytes", n, width, len(data))
	}
	ch := newChunk(n, width)
	for c, col := range ch {
		var err error
		if data, err = parseArray(data, col); err != nil {
			return nil, fmt.Errorf("array %d of %d: %w", c+1, width, err)
		}
	}
	if len(data) > 0 {
		return nil, fmt.Errorf("%d bytes after the last array", len(data))
	}
	a := &answer{QueryResponse: h.QueryResponse, chunks: [][][]int64{ch}, n: n, rowID: -1}
	if h.HasRowIDs {
		a.rowID = width - 1
	}
	return a, nil
}

// parseArray parses one array of exactly len(dst) integers and the newline
// that ends it from the front of data into dst, and returns the rest.
func parseArray(data []byte, dst []int64) ([]byte, error) {
	if len(data) == 0 || data[0] != '[' {
		return nil, errors.New("no array")
	}
	i := 1
	for k := range dst {
		if k > 0 {
			if i >= len(data) || data[i] != ',' {
				return nil, fmt.Errorf("%d values, want %d", k, len(dst))
			}
			i++
		}
		v, next, ok := parseInt(data, i)
		if !ok {
			return nil, fmt.Errorf("value %d is not an integer", k)
		}
		dst[k], i = v, next
	}
	if len(data) < i+2 || data[i] != ']' || data[i+1] != '\n' {
		return nil, fmt.Errorf("array does not end after %d values", len(dst))
	}
	return data[i+2:], nil
}

// parseInt parses the integer at b[i:] in strconv.AppendInt's form — an
// optional minus, no leading zero, no "-0", within int64 — and returns it and
// the index after it.
func parseInt(b []byte, i int) (int64, int, bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var u uint64
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if i-start == 19 { // 19 digits cannot overflow a uint64; 20 cannot fit an int64
			return 0, 0, false
		}
		u = u*10 + uint64(b[i]-'0')
	}
	switch digits := i - start; {
	case digits == 0,
		b[start] == '0' && (digits > 1 || neg),
		u > 1<<63-1 && !(neg && u == 1<<63):
		return 0, 0, false
	}
	if neg {
		return -int64(u), i, true
	}
	return int64(u), i, true
}
