// Command csserve serves a generated database over HTTP: the concurrent
// query service of internal/service (admission-controlled sessions with
// cost-sized worker grants, a result cache in front of the shared join-build
// cache) behind JSON endpoints. SIGINT/SIGTERM shut down
// gracefully, draining in-flight sessions.
//
// Usage:
//
//	csserve -dir ./data -addr :8088 -worker-budget 4 -max-concurrent 8 -calibrate
//
//	curl -s localhost:8088/query -d '{"projection":"lineitem",
//	     "output":["shipdate","linenum"], "where":["shipdate<400"],
//	     "strategy":"lm-parallel"}'
//	curl -s localhost:8088/join -d '{"left":"orders","right":"customer",
//	     "leftkey":"custkey","rightkey":"custkey","leftout":["shipdate"],
//	     "rightout":["nationcode"],"where":["custkey<200"]}'
//	curl -s localhost:8088/explain -d '{...}'     # plan tree, modeled vs observed
//	curl -s localhost:8088/stats                  # admission + cache counters
//
// Client mode (for scripts and CI environments without curl): -get URL
// performs a GET, -post URL with -data BODY performs a POST; either prints
// the response body and exits. A 503 with a Retry-After header (the
// service's shed signal) and a 502 (a coordinator's shard transport fault)
// are retried with the same bounded backoff (-retries), counted in
// retries_503/retries_502 stats printed to stderr.
//
// Coordinator mode serves a csgen -shards layout by scatter-gather over
// shard engines instead of executing locally:
//
//	csgen   -dir ./data -shards 2
//	csserve -dir ./data/shard-000 -addr :9101 &
//	csserve -dir ./data/shard-001 -addr :9102 &
//	csserve -coordinator -dir ./data -addr :8088 \
//	        -shard-endpoints http://localhost:9101,http://localhost:9102
//
// The coordinator loads only shards.json and per-shard meta.json, fans
// /query, /join and /explain out over the endpoints in parallel, and merges
// partials with the executor's deterministic merge contract, so responses
// are byte-identical to a single engine over the un-sharded directory.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"matstore"
	"matstore/internal/bench"
	"matstore/internal/faults"
	"matstore/internal/obs"
	"matstore/internal/service"
)

func main() {
	dir := flag.String("dir", "./data", "database directory")
	addr := flag.String("addr", ":8088", "listen address")
	budget := flag.Int("worker-budget", 0, "global worker budget shared by in-flight queries (0 = one per CPU)")
	maxConc := flag.Int("max-concurrent", 0, "admission limit; requests past it queue (0 = 2x budget)")
	buildMB := flag.Int64("build-cache-mb", 0, "join-build cache budget in MiB (0 = 64, negative = disabled)")
	resultMB := flag.Int64("result-cache-mb", 0, "result cache budget in MiB (0 = 32, negative = disabled)")
	memoryMB := flag.Int64("memory-budget-mb", 0, "byte-budget memory governor in MiB: joins reserve predicted build bytes, run as Grace spill joins when over budget, shed with 503 under pile-up (0 = governance off)")
	faultSpec := flag.String("faults", "", "debug: arm fault-injection sites, e.g. 'spill.read=error:3,mem.reserve=slow' (sites: "+strings.Join(faults.Sites, " ")+"; modes: error slow[:afterN])")
	calibrate := flag.Bool("calibrate", false, "refit the cost-model constants to this machine from the mixed workload before serving")
	coordinator := flag.Bool("coordinator", false, "scatter-gather mode: -dir is a csgen -shards root; fan /query, /join, /explain out over -shard-endpoints and merge")
	shardEndpoints := flag.String("shard-endpoints", "", "coordinator mode: comma-separated shard base URLs, one per shard in shard order")
	shardTimeoutMS := flag.Int("shard-timeout-ms", 0, "coordinator mode: per-shard fan-out timeout in milliseconds (0 = 30000)")
	get := flag.String("get", "", "client mode: GET this URL, print the body, exit")
	post := flag.String("post", "", "client mode: POST -data to this URL, print the body, exit")
	data := flag.String("data", "", "client mode: POST body for -post")
	retries := flag.Int("retries", 5, "client mode: max retries after a transient 503 (Retry-After) or 502 (shard transport fault)")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. localhost:6060) on a separate mux, never on the serving port (\"\" = disabled)")
	slowQueryUS := flag.Int64("slow-query-us", 0, "log requests whose wall time reaches this many µs as structured slow-query records (0 = disabled)")
	flag.Parse()

	logger := obs.NewLogger(os.Stderr).With("component", "csserve", "version", obs.Version)

	if *get != "" || *post != "" {
		if err := client(*get, *post, *data, *retries); err != nil {
			fatal(logger, "client request failed", err)
		}
		return
	}

	startPprof(*pprofAddr, logger)

	if *coordinator {
		if err := serveCoordinator(*dir, *addr, *shardEndpoints, *shardTimeoutMS, *slowQueryUS, logger); err != nil {
			fatal(logger, "coordinator failed", err)
		}
		return
	}

	db, err := matstore.Open(*dir)
	if err != nil {
		fatal(logger, "open failed", err)
	}
	defer db.Close()

	if *calibrate {
		rep, err := bench.CalibrateDB(db)
		if err != nil {
			fatal(logger, "calibrate failed", err)
		}
		logger.Info("calibrated", "observations", rep.Observations,
			"prior_rms_us", rep.PriorErrUS, "fitted_rms_us", rep.FittedErrUS,
			"bic", rep.Fitted.BIC, "tictup", rep.Fitted.TICTUP,
			"ticcol", rep.Fitted.TICCOL, "fc", rep.Fitted.FC)
	}

	if *faultSpec != "" {
		if err := faults.Parse(*faultSpec); err != nil {
			fatal(logger, "bad -faults spec", err)
		}
		logger.Info("fault injection armed", "spec", *faultSpec)
	}

	buildBytes := *buildMB
	if buildBytes > 0 {
		buildBytes <<= 20
	}
	resultBytes := *resultMB
	if resultBytes > 0 {
		resultBytes <<= 20
	}
	memoryBytes := *memoryMB
	if memoryBytes > 0 {
		memoryBytes <<= 20
	}
	srv := service.New(db, service.Config{
		MaxConcurrent:     *maxConc,
		WorkerBudget:      *budget,
		BuildCacheBytes:   buildBytes,
		ResultCacheBytes:  resultBytes,
		MemoryBudgetBytes: memoryBytes,
		Logger:            logger,
		SlowQueryMicros:   *slowQueryUS,
	})
	cfg := srv.Config()
	logger.Info("serving", "dir", *dir, "addr", *addr,
		"worker_budget", cfg.WorkerBudget, "admission_limit", cfg.MaxConcurrent,
		"memory_budget_mb", *memoryMB, "projections", db.Projections())

	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		fatal(logger, "serve failed", err)
	case sig := <-sigCh:
		logger.Info("draining in-flight sessions", "signal", sig.String())
		srv.MarkDraining() // /readyz flips to 503 before connections close
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			fatal(logger, "shutdown failed", err)
		}
		st := srv.Stats()
		logger.Info("drained", "queries", st.Queries,
			"admitted", st.Admission.Admitted, "result_cache_hits", st.ResultCache.Hits)
	}
}

// fatal logs a structured error line and exits non-zero.
func fatal(logger *obs.Logger, msg string, err error) {
	logger.Error(msg, "error", err.Error())
	os.Exit(1)
}

// startPprof serves net/http/pprof on its own mux and listener — profiling
// endpoints are explicitly registered here and never mounted on the serving
// port, so exposing the query API does not expose profiles.
func startPprof(addr string, logger *obs.Logger) {
	if addr == "" {
		return
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	hs := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		logger.Info("pprof listening", "addr", addr)
		if err := hs.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			logger.Error("pprof server exited", "error", err.Error())
		}
	}()
}

// serveCoordinator runs the scatter-gather front-end over shard engines:
// metadata-only startup (shards.json + per-shard meta.json), then the same
// endpoint surface and graceful-drain behavior as a shard engine.
func serveCoordinator(dir, addr, endpoints string, timeoutMS int, slowQueryUS int64, logger *obs.Logger) error {
	if endpoints == "" {
		return fmt.Errorf("-coordinator requires -shard-endpoints")
	}
	var eps []string
	for _, e := range strings.Split(endpoints, ",") {
		if e = strings.TrimSpace(e); e != "" {
			eps = append(eps, strings.TrimRight(e, "/"))
		}
	}
	coord, err := service.NewCoordinator(dir, eps, service.CoordinatorConfig{
		ShardTimeout:    time.Duration(timeoutMS) * time.Millisecond,
		Logger:          logger,
		SlowQueryMicros: slowQueryUS,
	})
	if err != nil {
		return err
	}
	logger.Info("coordinating", "dir", dir, "addr", addr,
		"shards", len(eps), "endpoints", eps, "coordinator", coord.String())

	hs := &http.Server{
		Addr:              addr,
		Handler:           coord.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errCh:
		return err
	case sig := <-sigCh:
		logger.Info("draining in-flight requests", "signal", sig.String())
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return hs.Shutdown(ctx)
	}
}

// client is the curl-free HTTP helper for scripts: one GET or POST, body to
// stdout, non-2xx status as an error. Two transient statuses retry up to
// retries times with the same bounded backoff: a 503 carrying a Retry-After
// header (the service's load-shed backpressure signal, honoring the
// advertised delay capped at 5s per attempt) and a 502 (the coordinator's
// shard-transport-fault signal — the shard process may be mid-restart, so a
// brief retry rides out the blip). Retries are counted per status and
// reported to stderr as retries_502/retries_503 when any occurred.
func client(get, post, data string, retries int) error {
	do := func() (*http.Response, error) {
		if get != "" {
			return http.Get(get)
		}
		return http.Post(post, "application/json", strings.NewReader(data))
	}
	retries502, retries503 := 0, 0
	defer func() {
		if retries502+retries503 > 0 {
			fmt.Fprintf(os.Stderr, "csserve: retries_502=%d retries_503=%d\n", retries502, retries503)
		}
	}()
	for attempt := 0; ; attempt++ {
		resp, err := do()
		if err != nil {
			return err
		}
		transient := resp.StatusCode == http.StatusServiceUnavailable ||
			resp.StatusCode == http.StatusBadGateway
		if transient && attempt < retries {
			delay := retryAfterDelay(resp.Header.Get("Retry-After"))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusBadGateway {
				retries502++
			} else {
				retries503++
			}
			fmt.Fprintf(os.Stderr, "csserve: HTTP %d, retrying in %s (%d/%d)\n",
				resp.StatusCode, delay, attempt+1, retries)
			time.Sleep(delay)
			continue
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		os.Stdout.Write(body)
		if resp.StatusCode/100 != 2 {
			return fmt.Errorf("HTTP %d", resp.StatusCode)
		}
		return nil
	}
}

// retryAfterDelay converts a Retry-After header value into a bounded sleep:
// the advertised seconds clamped to [100ms, 5s], or 250ms when absent.
func retryAfterDelay(h string) time.Duration {
	d := 250 * time.Millisecond
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil {
		d = time.Duration(secs) * time.Second
	}
	if d < 100*time.Millisecond {
		d = 100 * time.Millisecond
	}
	if d > 5*time.Second {
		d = 5 * time.Second
	}
	return d
}
