// Command satserved serves the gradient-descent SAT sampler over HTTP:
// clients POST a DIMACS CNF (or a cached problem key) and receive verified
// solutions as an NDJSON stream. See internal/server for the service
// semantics (weighted-fair queueing, admission control, drain).
//
// Usage:
//
//	satserved [-addr :8080] [-workers 4] [-queue 64] [-tenantqueue 0]
//	          [-cache 64] [-cachebudget 256] [-membudget 512]
//	          [-sessionmem 64] [-maxtarget 100000] [-maxtimeout 2m]
//	          [-maxcnf 8388608] [-draingrace 5s] [-spool dir]
//	          [-spoolbudget 32] [-store dir] [-storebudget 0]
//	          [-peers a,b] [-peerprobe 1s]
//	          [-preempt 0] [-faultplan plan] [-logjson] [-portfile path]
//
// Endpoints:
//
//	POST /v1/sample?target=N&timeout=30s&tenant=T&weight=W   body: DIMACS
//	POST /v1/sample?key=HEX&...                              cached problem
//	POST /v1/sample?project=1,4,7&...                        projected sampling
//	POST /v1/sample?resume=TOKEN&...                         re-attach a drained stream
//	POST /v1/adopt                                           peer checkpoint handoff
//	POST /v1/handoff                                         park streams onto peers now
//	GET  /healthz
//	GET  /metrics
//
// ?project= (comma list or JSON array; "c ind"/"p show" lines in the body
// work too) restricts solution identity to the listed variables: the
// stream delivers one verified full-model witness per projected-distinct
// class and the meta/done lines carry projected_vars.
//
// SIGINT/SIGTERM start a graceful drain: new submissions get 503, running
// streams finish (or are cancelled after -draingrace and flush partial
// results), then the process exits 0. A drained stream's done line carries
// a one-shot resume token; with -spool set the parked checkpoints survive
// the restart on disk, and POST /v1/sample?resume=<token> continues the
// stream exactly where the drain cut it — zero solutions lost.
//
// With -peers set, a drain (or an explicit POST /v1/handoff) pushes each
// parked checkpoint to a healthy peer over POST /v1/adopt instead of the
// local spool: the done line's resume_addr points the client straight at
// the adopting replica, so the stream continues with zero loss even when
// this process never comes back. -preempt enables SFQ preemption: when
// another tenant's waiter starves past the threshold, the active stream
// with the most virtual-finish overshoot is checkpointed off its slot at
// a tick boundary and re-admitted behind a fresh fair-queue tag.
// -faultplan arms the chaos tier (see internal/faultinject) — test
// builds only.
//
// -store mounts the durable compile tier: compiled problems are encoded
// (GDSP) into a content-addressed directory and loaded back instead of
// recompiled — across restarts, and across every replica pointing -store
// at the same shared directory (each formula then compiles once
// fleet-wide). -storebudget bounds the directory in MiB (0 = unbounded),
// evicting least-recently-served artifacts first.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"repro/internal/cnf"
	"repro/internal/faultinject"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/store"
	"repro/internal/tensor"
)

// spoolBytes maps the -spoolbudget MiB flag onto Config.SpoolBudget's
// convention (0 = server default, negative disables).
func spoolBytes(mib int64) int64 {
	if mib <= 0 {
		return mib
	}
	return mib << 20
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "satserved:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", ":8080", "listen address (host:port; port 0 picks a free port)")
		workers     = flag.Int("workers", 4, "concurrent streaming sessions")
		queueDepth  = flag.Int("queue", 64, "bounded wait-queue depth")
		cacheCap    = flag.Int("cache", 0, "compile-cache capacity in entries (0 = default)")
		cacheBudget = flag.Int64("cachebudget", 256, "compile-cache resident-byte budget (MiB; 0 = entry bound only)")
		memBudget   = flag.Int64("membudget", 512, "aggregate session memory budget (MiB)")
		sessionMem  = flag.Int64("sessionmem", 64, "per-session memory budget for batch sizing (MiB)")
		maxTarget   = flag.Int("maxtarget", 100000, "maximum per-request solution target (target=0 requests get exactly this cap)")
		maxTimeout  = flag.Duration("maxtimeout", 2*time.Minute, "maximum per-request deadline")
		maxCNF      = flag.Int64("maxcnf", 8<<20, "maximum DIMACS input bytes (shape limits derive from it; 0 = the service default limits — a network server never parses unbounded input)")
		drainGrace  = flag.Duration("draingrace", 5*time.Second, "how long in-flight streams may run after SIGTERM")
		spoolDir    = flag.String("spool", "", "directory for drained-stream checkpoints (empty = a private temporary directory removed at exit; tokens die with the process)")
		spoolBudget = flag.Int64("spoolbudget", 32, "checkpoint spool byte budget (MiB; 0 = default, <0 disables resume)")
		storeDir    = flag.String("store", "", "directory for the durable compile tier (content-addressed problem artifacts; share one dir across replicas); empty disables")
		storeBudget = flag.Int64("storebudget", 0, "compile-store byte budget (MiB; 0 = unbounded), LRU-evicted by last use")
		peers       = flag.String("peers", "", "comma-separated peer base URLs for live checkpoint handoff (empty = no fleet)")
		peerProbe   = flag.Duration("peerprobe", time.Second, "peer health probe interval")
		preempt     = flag.Duration("preempt", 0, "SFQ preemption threshold: checkpoint the most-overserved stream when a waiter starves this long (0 = off)")
		tenantQueue = flag.Int("tenantqueue", 0, "per-tenant queued-waiter cap (0 = unbounded within -queue)")
		faultPlan   = flag.String("faultplan", "", "fault-injection plan, e.g. seed=1;killpeer@sol=40;rejectadopt=2 (chaos testing only)")
		devWorkers  = flag.Int("devworkers", 0, "GD device workers (0 = all CPUs, 1 = sequential)")
		seed        = flag.Int64("seed", 1, "base seed for per-request sessions")
		logJSON     = flag.Bool("logjson", false, "emit structured logs as JSON")
		portFile    = flag.String("portfile", "", "write the bound address to this file once listening")
	)
	flag.Parse()

	var injector *faultinject.Injector
	if *faultPlan != "" {
		plan, err := faultinject.ParsePlan(*faultPlan)
		if err != nil {
			return err
		}
		injector = faultinject.New(plan)
	}

	var handler slog.Handler = slog.NewTextHandler(os.Stderr, nil)
	if *logJSON {
		handler = slog.NewJSONHandler(os.Stderr, nil)
	}
	log := slog.New(handler)

	dev := tensor.Parallel()
	if *devWorkers == 1 {
		dev = tensor.Sequential()
	} else if *devWorkers > 1 {
		dev = tensor.ParallelN(*devWorkers)
	}

	var problemStore *store.Store
	if *storeDir != "" {
		st, err := store.Open(*storeDir, *storeBudget<<20, log)
		if err != nil {
			return fmt.Errorf("compile store: %w", err)
		}
		problemStore = st
	}

	srv := server.New(server.Config{
		Compiler:         sampling.NewCompilerBudget(*cacheCap, *cacheBudget<<20).WithStore(problemStore),
		Device:           dev,
		Workers:          *workers,
		QueueDepth:       *queueDepth,
		MemoryBudget:     *memBudget << 20,
		SessionMemory:    *sessionMem << 20,
		MaxTarget:        *maxTarget,
		MaxTimeout:       *maxTimeout,
		Limits:           cnf.LimitsForBytes(*maxCNF),
		DrainGrace:       *drainGrace,
		SpoolDir:         *spoolDir,
		SpoolBudget:      spoolBytes(*spoolBudget),
		Peers:            client.Bases(strings.Split(*peers, ",")...),
		PeerProbe:        *peerProbe,
		PreemptThreshold: *preempt,
		TenantQueueDepth: *tenantQueue,
		Injector:         injector,
		Seed:             *seed,
		Log:              log,
	})
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	bound := ln.Addr().String()
	if *portFile != "" {
		if err := os.WriteFile(*portFile, []byte(bound), 0o644); err != nil {
			ln.Close()
			return err
		}
	}
	// ReadHeaderTimeout/ReadTimeout bound slow-sending clients (headers or
	// trickled bodies hold a goroutine the admission gates never see);
	// WriteTimeout stays zero because sampling streams are long-lived by
	// design — their lifetime is bounded per request by -maxtimeout.
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	log.Info("listening", "addr", bound, "workers", *workers,
		"queue", *queueDepth, "membudget_mib", *memBudget,
		"device", dev.Name(), "device_workers", dev.Workers(),
		"gomaxprocs", runtime.GOMAXPROCS(0))

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()

	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigCh:
		log.Info("signal received, draining", "signal", sig.String())
	case err := <-errCh:
		return err
	}

	// Drain: reject new work now, cancel in-flight streams after the
	// grace, and wait for every handler (partial results flush before the
	// connections close). Shutdown's own deadline is a last resort well
	// past the grace.
	srv.StartDrain()
	ctx, cancel := context.WithTimeout(context.Background(), *drainGrace+30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(ctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	log.Info("drained, exiting")
	return nil
}
