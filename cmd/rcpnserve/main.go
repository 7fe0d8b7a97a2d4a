// Command rcpnserve runs the simulation service: an HTTP API over every
// simulator in this repository, with content-addressed result caching,
// bounded-queue backpressure, graceful drain on SIGTERM/SIGINT and — with
// -data — crash-safe durability: accepted jobs journal to disk, long jobs
// checkpoint periodically, and a restarted server resumes pending work
// from the last checkpoint while serving finished results byte-identical
// to the original runs.
//
// Usage:
//
//	rcpnserve [-addr :8080] [-workers N] [-queue N] [-cache N]
//	          [-timeout 5m] [-drain 30s] [-maxcycles N]
//	          [-data DIR] [-attempts N] [-retry-base 100ms] [-retry-max 5s]
//	          [-coordinator ADDR] [-quota-rate R] [-quota-burst N]
//	          [-faultinj PLAN] [-pprof ADDR]
//
// -coordinator turns the instance into a shard coordinator: it listens on
// ADDR for rcpnworker connections and dispatches jobs onto the live-worker
// ring (DESIGN.md §14). With zero connected workers it degrades to local
// execution — same bytes, /healthz reports "degraded". -quota-rate and
// -quota-burst arm per-tenant token-bucket admission (X-Tenant header;
// refusals are 429 + Retry-After).
//
// API (see DESIGN.md §8–§10 and the README quickstart):
//
//	POST /v1/jobs            submit a job spec; 202 + content-addressed id,
//	                         429 + Retry-After when the queue is full,
//	                         503 + Retry-After while draining
//	GET  /v1/jobs/{id}       job state; rcpn-batch/v1 result when finished
//	GET  /v1/jobs/{id}/events  SSE progress (cycles retired, Mcycles/s)
//	GET  /v1/jobs/{id}/trace   Chrome trace_event JSON (trace_events > 0 jobs)
//	GET  /v1/metrics         Prometheus text format: queue, jobs, cache, ...
//	GET  /healthz            200 ok, 200 degraded (durability lost), 503 draining
//
// -faultinj arms the deterministic fault-injection harness (testing only);
// the plan grammar is internal/faultinj's: site[#N][@V][*T]:action[=arg],
// comma-separated, e.g. "worker.panic@50000:panic,journal.append#3:error".
// -pprof serves net/http/pprof on a second, typically loopback-only,
// listener (e.g. -pprof localhost:6060) so profiling never shares the
// public address.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the -pprof listener's DefaultServeMux
	"os"
	"os/signal"
	"syscall"
	"time"

	"rcpn/internal/faultinj"
	"rcpn/internal/serve"
	"rcpn/internal/shard"
)

// Connection timeouts of the public listener.
const (
	readHeaderTimeout = 10 * time.Second
	idleTimeout       = 120 * time.Second
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "simulation worker pool size (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "admission queue depth (full queue = HTTP 429)")
	cache := flag.Int("cache", 1024, "result cache entries")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-job deadline")
	drain := flag.Duration("drain", 30*time.Second, "grace period for in-flight jobs on shutdown")
	maxCycles := flag.Int64("maxcycles", 1<<32, "per-job cycle cap; a spec's max_cycles applies only below it")
	data := flag.String("data", "", "data directory for crash-safe durability (empty = memory-only)")
	attempts := flag.Int("attempts", 3, "max executions before a transiently failing job is poisoned")
	retryBase := flag.Duration("retry-base", 100*time.Millisecond, "first retry backoff (doubles per attempt)")
	retryMax := flag.Duration("retry-max", 5*time.Second, "retry backoff ceiling")
	coordAddr := flag.String("coordinator", "", "listen for shard workers on this address (empty = single-process)")
	quotaRate := flag.Float64("quota-rate", 0, "per-tenant submissions/second (0 = quotas off)")
	quotaBurst := flag.Int("quota-burst", 0, "per-tenant burst size (0 = default when quotas are on)")
	faultPlan := flag.String("faultinj", "", "deterministic fault-injection plan (testing only)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060; empty = off)")
	flag.Parse()

	if *pprofAddr != "" {
		go func() {
			// DefaultServeMux carries only the net/http/pprof handlers here;
			// the service itself uses its own mux.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "rcpnserve: pprof listener:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "rcpnserve: pprof on http://%s/debug/pprof/\n", *pprofAddr)
	}

	var inj *faultinj.Injector
	if *faultPlan != "" {
		var err error
		if inj, err = faultinj.Parse(*faultPlan); err != nil {
			fmt.Fprintln(os.Stderr, "rcpnserve:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "rcpnserve: fault injection armed: %s\n", *faultPlan)
	}

	var coord *shard.Coordinator
	if *coordAddr != "" {
		ln, lerr := net.Listen("tcp", *coordAddr)
		if lerr != nil {
			fmt.Fprintln(os.Stderr, "rcpnserve:", lerr)
			os.Exit(1)
		}
		coord = shard.NewCoordinator(shard.CoordinatorConfig{Fault: inj})
		go func() {
			if serr := coord.Serve(ln); serr != nil && !errors.Is(serr, net.ErrClosed) {
				fmt.Fprintln(os.Stderr, "rcpnserve: coordinator:", serr)
			}
		}()
		defer ln.Close()
		fmt.Fprintf(os.Stderr, "rcpnserve: coordinating shard workers on %s\n", ln.Addr())
	}

	cfg := serve.Config{
		Workers:      *workers,
		QueueDepth:   *queue,
		CacheEntries: *cache,
		JobTimeout:   *timeout,
		MaxCycles:    *maxCycles,
		DataDir:      *data,
		MaxAttempts:  *attempts,
		RetryBase:    *retryBase,
		RetryMax:     *retryMax,
		QuotaRate:    *quotaRate,
		QuotaBurst:   *quotaBurst,
		Fault:        inj,
	}
	if coord != nil {
		cfg.Dispatcher = coord
	}
	srv, err := serve.New(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rcpnserve:", err)
		os.Exit(1)
	}
	// A client that never finishes its request header, or idles on a
	// kept-alive connection, is cut off instead of holding a connection
	// forever. There is no WriteTimeout: SSE progress streams stay open for
	// a job's lifetime.
	hs := &http.Server{Addr: *addr, Handler: srv,
		ReadHeaderTimeout: readHeaderTimeout, IdleTimeout: idleTimeout}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan struct{})
	go func() {
		defer close(shutdownDone)
		<-ctx.Done()
		fmt.Fprintf(os.Stderr, "rcpnserve: draining (grace %v)\n", *drain)
		// Stop admitting and let in-flight work finish (or get canceled at
		// the grace deadline) while the listener keeps serving GETs, so
		// clients can still collect results; then close the listener.
		srv.Drain(*drain)
		if coord != nil {
			coord.Close()
		}
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(sctx) //nolint:errcheck // best-effort close
		fmt.Fprintln(os.Stderr, "rcpnserve: drained")
	}()

	fmt.Fprintf(os.Stderr, "rcpnserve: listening on %s\n", *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "rcpnserve:", err)
		os.Exit(1)
	}
	<-shutdownDone
}
