package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"matstore"
	"matstore/internal/core"
	"matstore/internal/operators"
	"matstore/internal/service"
)

// referenceReply is a reply as encoding/json writes it: what every reply was
// before the rows were written by hand.
func referenceReply(resp *service.QueryResponse) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(resp)
	return buf.Bytes()
}

// checkReplyBytes decodes a reply and requires its bytes to be exactly what
// encoding/json writes for what it decoded to.
func checkReplyBytes(t *testing.T, label string, raw []byte) {
	t.Helper()
	var resp service.QueryResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		t.Fatalf("%s: %v\n%s", label, err, raw)
	}
	if want := referenceReply(&resp); !bytes.Equal(raw, want) {
		t.Errorf("%s: reply bytes differ from encoding/json's\n got %s\nwant %s", label, raw, want)
	}
}

// postReply POSTs body and checks the reply's bytes; it returns the reply.
func postReply(t *testing.T, label, url, body string) []byte {
	t.Helper()
	status, hdr, raw := postRaw(t, url, body)
	if status != http.StatusOK {
		t.Fatalf("%s: HTTP %d %s", label, status, raw)
	}
	if ct := hdr.Get("Content-Type"); ct != "application/json" {
		t.Errorf("%s: Content-Type %q", label, ct)
	}
	checkReplyBytes(t, label, raw)
	return raw
}

// TestClientRepliesByteIdentical: every client reply — an engine's /query and
// /join, a coordinator's at 1, 2 and 4 shards for every merge kind and for
// joins — is byte for byte what encoding/json writes for the same
// QueryResponse, with zero rows (null and []), negative and extreme values,
// row ids and capped replies among them.
func TestClientRepliesByteIdentical(t *testing.T) {
	queries := []struct{ name, path, body string }{
		{"select", "/query", `{"projection":"lineitem","output":["shipdate","linenum"],"where":["shipdate<400","linenum<7"],"strategy":"lm-parallel","limit":-1}`},
		{"select-capped", "/query", `{"projection":"lineitem","output":["shipdate","quantity"],"where":["shipdate<2000"],"strategy":"em-pipelined","limit":7}`},
		{"select-default-cap", "/query", `{"projection":"lineitem","output":["shipdate"],"strategy":"em-parallel"}`},
		{"select-no-rows", "/query", `{"projection":"lineitem","output":["shipdate"],"where":["shipdate<-5"],"strategy":"lm-pipelined"}`},
		{"agg", "/query", `{"projection":"lineitem","groupby":"returnflag","aggcol":"quantity","agg":"avg","where":["shipdate<1500"],"limit":-1}`},
		{"agg-capped", "/query", `{"projection":"orders","groupby":"custkey","aggcol":"shipdate","agg":"min","limit":11}`},
		{"orders", "/query", `{"projection":"orders","output":["custkey","shipdate"],"where":["custkey<200"],"limit":-1}`},
		{"join", "/join", `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"where":["custkey<100"],"limit":-1}`},
		{"join-capped", "/join", `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"rightstrategy":"right-multicolumn","limit":9}`},
		{"join-no-rows", "/join", `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"where":["custkey<0"]}`},
	}
	single := singleEngine(t)
	for _, q := range queries {
		postReply(t, "engine "+q.name, single+q.path, q.body)
	}
	// A partial aggregation's rows are null, and its groups ride beside them.
	raw := postReply(t, "engine partial agg", single+"/query",
		`{"projection":"lineitem","groupby":"returnflag","aggcol":"quantity","agg":"sum","partial":true}`)
	if !bytes.Contains(raw, []byte(`"rows":null`)) || !bytes.Contains(raw, []byte(`"groups":[`)) {
		t.Errorf("partial aggregation reply: %s", raw)
	}
	if raw := postReply(t, "engine no rows", single+"/query", queries[3].body); !bytes.Contains(raw, []byte(`"rows":[]`)) {
		t.Errorf("empty selection reply: %s", raw)
	}

	// Row ids asked for by a client: a key-partitioned shard's engine answers
	// them in rowids, in the client's JSON, with and without other columns.
	db, err := matstore.Open(fmt.Sprintf("%s/s2/shard-001", keypartData(t)), matstore.Options{Exec: core.Options{ChunkSize: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	shard := httptest.NewServer(service.New(db, service.Config{WorkerBudget: 2}).Handler())
	defer shard.Close()
	for _, body := range []string{
		`{"projection":"orders","output":["custkey","shipdate"],"where":["custkey<300"],"rowids":true,"limit":5}`,
		`{"projection":"orders","output":[],"where":["custkey<300"],"rowids":true,"limit":5}`,
	} {
		if raw := postReply(t, "engine rowids", shard.URL+"/query", body); !bytes.Contains(raw, []byte(`"rowids":[`)) {
			t.Errorf("row ids missing: %s", raw)
		}
	}
	raw = postReply(t, "engine join rowids", shard.URL+"/join",
		`{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],"rightout":["nationcode"],"rowids":true,"limit":4}`)
	if !bytes.Contains(raw, []byte(`"rowids":[`)) {
		t.Errorf("join row ids missing: %s", raw)
	}

	// Every merge kind, through coordinators over range-sharded and
	// key-partitioned layouts (concat, agg_statistics; rowid_kway,
	// finalized_agg and the co-partitioned join).
	for _, shards := range []int{1, 2, 4} {
		for _, fl := range []*fleet{newFleet(t, shards, service.CoordinatorConfig{}), newKeypartFleet(t, shards, service.CoordinatorConfig{})} {
			for _, q := range queries {
				postReply(t, fmt.Sprintf("coordinator shards=%d %s", shards, q.name), fl.URL+q.path, q.body)
			}
		}
	}

	// Values no TPC-H column holds, written through the same writer.
	for _, resp := range []*service.QueryResponse{
		{Columns: []string{"a", "b"}, Rows: [][]int64{{-1, math.MinInt64}, {math.MaxInt64, 0}, {-90210, 7}},
			RowCount: 3, Checksum: -42, Strategy: "LM-parallel", EstCostUS: 0.125, Probes: 3, Spilled: true},
		{Columns: []string{"a"}, Rows: [][]int64{{-7}}, RowIDs: []int64{-1}},
		{Columns: []string{}, Rows: [][]int64{{}, {}}, RowIDs: []int64{3, 4}},
		{Columns: []string{"k", "v"}, Groups: []operators.GroupStats{{Key: -1, Sum: -2, Count: 1, Min: -2, Max: -2}}},
		{Columns: []string{"a"}, Rows: [][]int64{}},
		{Columns: []string{"<&>", `"rows":null`}, Rows: [][]int64{{1, 2}}},
	} {
		rec := httptest.NewRecorder()
		service.WriteQueryResponse(rec, resp)
		if want := referenceReply(resp); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Errorf("reply bytes differ from encoding/json's\n got %s\nwant %s", rec.Body.Bytes(), want)
		}
	}
}
