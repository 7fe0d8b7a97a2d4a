// Command rcpnworker is one shard worker: it dials a coordinator
// (rcpnserve -coordinator), executes the job specs it is handed through
// the same executor a local server uses, and answers with fully rendered
// result payloads — which is why scaling out never changes result bytes
// (DESIGN.md §14).
//
// Usage:
//
//	rcpnworker -coordinator HOST:PORT [-node NAME] [-slots N]
//	           [-timeout 5m] [-maxcycles N] [-data DIR]
//	           [-heartbeat 2s] [-faultinj PLAN]
//
// The execution knobs (-timeout, -maxcycles) default to the rcpnserve
// defaults and must match the coordinator's if overridden there: they are
// part of the deterministic execution contract.
//
// -data points at a result store directory. Workers sharing one (a shared
// mount) adopt results orphaned by a worker that died between computing
// and answering, instead of re-executing.
//
// The worker is crash-only: losing the coordinator connection abandons all
// in-flight work (the coordinator has already reassigned it) and redials.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"rcpn/internal/faultinj"
	"rcpn/internal/shard"
	"rcpn/internal/store"
)

func main() {
	coordinator := flag.String("coordinator", "", "coordinator address (required), e.g. host:9090")
	node := flag.String("node", "", "worker name on the ring (default host:pid)")
	slots := flag.Int("slots", 0, "concurrent job capacity (0 = GOMAXPROCS)")
	timeout := flag.Duration("timeout", 5*time.Minute, "per-job deadline (must match the coordinator's)")
	maxCycles := flag.Int64("maxcycles", 1<<32, "per-job cycle cap; a spec's max_cycles applies only below it (must match the coordinator's)")
	data := flag.String("data", "", "shared result store directory for orphaned-result adoption (empty = none)")
	heartbeat := flag.Duration("heartbeat", 2*time.Second, "ping interval (must match the coordinator's)")
	faultPlan := flag.String("faultinj", "", "deterministic fault-injection plan (testing only)")
	flag.Parse()

	if *coordinator == "" {
		fmt.Fprintln(os.Stderr, "rcpnworker: -coordinator is required")
		flag.Usage()
		os.Exit(2)
	}
	var inj *faultinj.Injector
	if *faultPlan != "" {
		var err error
		if inj, err = faultinj.Parse(*faultPlan); err != nil {
			fmt.Fprintln(os.Stderr, "rcpnworker:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "rcpnworker: fault injection armed: %s\n", *faultPlan)
	}
	var st *store.Store
	if *data != "" {
		var err error
		if st, _, err = store.Open(*data, inj, nil); err != nil {
			fmt.Fprintln(os.Stderr, "rcpnworker:", err)
			os.Exit(1)
		}
	}

	w := shard.NewWorker(shard.WorkerConfig{
		Node:       *node,
		Slots:      *slots,
		JobTimeout: *timeout,
		MaxCycles:  *maxCycles,
		Heartbeat:  *heartbeat,
		Store:      st,
		Fault:      inj,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "rcpnworker: "+format+"\n", args...)
		},
	})

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := w.Run(ctx, *coordinator); err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "rcpnworker:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "rcpnworker: shut down")
}
