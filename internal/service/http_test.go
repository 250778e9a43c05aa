package service_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"matstore"
	"matstore/internal/service"
)

func postJSON(t *testing.T, url, body string, dst any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e map[string]string
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: HTTP %d (%v)", url, resp.StatusCode, e)
	}
	if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
		t.Fatal(err)
	}
}

// TestHTTPEndpoints drives the full front-end over a real listener: /query
// against the direct engine result, /join twice for a build-cache hit,
// /explain for both plan shapes, and /stats for the counters.
func TestHTTPEndpoints(t *testing.T) {
	srv := newServer(t, cacheConfig(2, 4, true))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// /query: result matches direct execution.
	var q service.QueryResponse
	postJSON(t, ts.URL+"/query",
		`{"projection":"lineitem","output":["shipdate","linenum"],"where":["shipdate<400","linenum<7"],"strategy":"lm-parallel","limit":5}`, &q)
	ref := openDB(t)
	res, stats, err := ref.Select("lineitem", matstore.Query{
		Output: []string{"shipdate", "linenum"},
		Filters: []matstore.Filter{
			{Col: "shipdate", Pred: matstore.LessThan(400)},
			{Col: "linenum", Pred: matstore.LessThan(7)},
		},
		Parallelism: 1,
	}, matstore.LMParallel)
	if err != nil {
		t.Fatal(err)
	}
	if q.RowCount != res.NumRows() || q.Checksum != stats.OutputChecksum {
		t.Errorf("served rows/checksum %d/%d, direct %d/%d", q.RowCount, q.Checksum, res.NumRows(), stats.OutputChecksum)
	}
	if len(q.Rows) != 5 || len(q.Columns) != 2 {
		t.Errorf("limited response shape: %d rows, %v columns", len(q.Rows), q.Columns)
	}
	if q.Workers < 1 || q.Workers > 2 {
		t.Errorf("served workers = %d, budget 2", q.Workers)
	}

	// /query with the advisor picking the strategy.
	var adv service.QueryResponse
	postJSON(t, ts.URL+"/query",
		`{"projection":"lineitem","output":["shipdate"],"where":["shipdate<400"],"strategy":"advise"}`, &adv)
	if adv.Strategy == "" {
		t.Error("advised query reported no strategy")
	}

	// /join twice: the repeat must report a build-cache hit.
	join := `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey",` +
		`"leftout":["shipdate"],"rightout":["nationcode"],"where":["custkey<100"],"rightstrategy":"right-materialized"}`
	var j1, j2 service.QueryResponse
	postJSON(t, ts.URL+"/join", join, &j1)
	postJSON(t, ts.URL+"/join", join, &j2)
	if j1.BuildCacheHit {
		t.Error("cold join reported build_cache_hit")
	}
	if !j2.BuildCacheHit {
		t.Error("repeated join missed the build cache")
	}
	if j1.RowCount != j2.RowCount || j1.Checksum != j2.Checksum {
		t.Errorf("cached join result differs: %d/%d vs %d/%d", j1.RowCount, j1.Checksum, j2.RowCount, j2.Checksum)
	}
	if j1.Partitions < 1 || j1.BuildTuples < 1 {
		t.Errorf("join counters missing: partitions=%d build_tuples=%d", j1.Partitions, j1.BuildTuples)
	}

	// /join with the Section 4.3 advisor.
	var ja service.QueryResponse
	postJSON(t, ts.URL+"/join",
		`{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey",`+
			`"leftout":["shipdate"],"rightout":["nationcode"],"where":["custkey<10"],"rightstrategy":"advise"}`, &ja)
	if ja.Strategy == "" {
		t.Error("advised join reported no strategy")
	}
	// An advised semi-join (no right outputs) runs the one strategy that
	// builds it, with the rows and checksum of the default.
	semi := `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"custkey",` +
		`"leftout":["shipdate"],"where":["custkey<300"],"rightstrategy":"%s"}`
	var jsAdv, jsDef service.QueryResponse
	var jsEx service.ExplainResponse
	postJSON(t, ts.URL+"/join", fmt.Sprintf(semi, "advise"), &jsAdv)
	postJSON(t, ts.URL+"/join", fmt.Sprintf(semi, ""), &jsDef)
	postJSON(t, ts.URL+"/explain", fmt.Sprintf(semi, "advise"), &jsEx)
	if jsAdv.Strategy != "right-materialized" || jsAdv.RowCount != jsDef.RowCount || jsAdv.Checksum != jsDef.Checksum {
		t.Errorf("advised semi-join: %s %d/%d, default %s %d/%d",
			jsAdv.Strategy, jsAdv.RowCount, jsAdv.Checksum, jsDef.Strategy, jsDef.RowCount, jsDef.Checksum)
	}
	if jsEx.RowCount != jsDef.RowCount || !strings.Contains(jsEx.Tree, "JOINBUILD") {
		t.Errorf("advised semi-join explain: %d rows, default %d:\n%s", jsEx.RowCount, jsDef.RowCount, jsEx.Tree)
	}

	// /explain, selection and join shapes.
	var ex service.ExplainResponse
	postJSON(t, ts.URL+"/explain",
		`{"projection":"lineitem","output":["shipdate"],"where":["shipdate<400"],"strategy":"lm-pipelined"}`, &ex)
	if !strings.Contains(ex.Tree, "DS1") {
		t.Errorf("selection explain tree missing DS1:\n%s", ex.Tree)
	}
	var jex service.ExplainResponse
	postJSON(t, ts.URL+"/explain", join, &jex)
	if !strings.Contains(jex.Tree, "JOINBUILD") || !strings.Contains(jex.Tree, "JOINPROBE") {
		t.Errorf("join explain tree missing join nodes:\n%s", jex.Tree)
	}

	// /stats: admission and cache counters present and consistent.
	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.BuildCache.Hits < 1 {
		t.Errorf("stats build-cache hits = %d, want >= 1", st.BuildCache.Hits)
	}
	if st.Admission.Admitted != st.Admission.Completed || st.Admission.Admitted < 7 {
		t.Errorf("admission counters off: %+v", st.Admission)
	}
	if st.Admission.PeakWorkersInUse > 2 {
		t.Errorf("peak workers %d exceeds budget 2", st.Admission.PeakWorkersInUse)
	}

	// Errors surface as JSON with 4xx status. A plan that does not build —
	// an explain's included, which is its query's request — answers before
	// admission and takes no slot.
	for _, bad := range []struct{ path, body string }{
		{"/query", `{"projection":"nope","output":["x"]}`},
		{"/explain", `{"projection":"lineitem","output":["nope"]}`},
		{"/explain", `{"left":"orders","right":"customer","leftkey":"custkey","rightkey":"nope","leftout":["shipdate"],"rightout":["nationcode"]}`},
	} {
		if status, _, raw := postRaw(t, ts.URL+bad.path, bad.body); status != http.StatusBadRequest {
			t.Errorf("%s %s: HTTP %d, want 400: %s", bad.path, bad.body, status, raw)
		}
	}
	if got := srv.Stats().Admission.Admitted; got != st.Admission.Admitted {
		t.Errorf("requests that did not build were admitted: %d admissions, %d before them", got, st.Admission.Admitted)
	}
}
