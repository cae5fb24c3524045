// Command satsample samples satisfying assignments from a DIMACS CNF file
// using the gradient-descent sampler (CNF → multi-level function →
// batched GD), or one of the baseline samplers for comparison.
//
// Usage:
//
//	satsample -in formula.cnf [-n 1000] [-timeout 30s] [-sampler gd]
//	          [-batch 4096] [-iters 5] [-lr 10] [-seed 1] [-workers 0]
//	          [-project 1,4,7] [-v] [-out solutions.txt] [-maxcnf 67108864]
//	          [-checkpoint state.ckpt] [-resume state.ckpt]
//	          [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// Samplers: gd (this work), diff, cmsgen, unigen.
// Projection: "c ind"/"p show" lines in the input declare the sampling
// set; -project (a comma-separated variable list) overrides them. Under a
// projection the gd sampler counts projected-distinct solutions and emits
// one full-model witness per projected class.
// Profiling: -cpuprofile records the sampling hot path (profiling starts
// after compilation, so the profile is pure sampling); -memprofile writes
// a heap profile after a final GC. Both are `go tool pprof` inputs.
// Output: one solution per line, as a 0/1 string over variables 1..N,
// streamed as each solution is verified; a summary goes to stderr.
//
// Sampling is cancellable: SIGINT/SIGTERM or the -timeout deadline stop
// the run cleanly, and every solution found so far is flushed to the
// output before exit — a partial result, not an empty file.
//
// Checkpointing (gd only): -checkpoint writes the session's full state to
// a file when the run ends — however it ends, including an interrupt —
// and -resume restores it, continuing the exact same stream (the
// checkpoint embeds the formula, so -in is not needed). An interrupted
// run resumed this way emits precisely the solutions the uninterrupted
// run would have: concatenating the two outputs reproduces it — provided
// both legs ask for the same -n, because the scheduler steers its final
// ticks by the remaining target (see DESIGN.md, "Zero-loss operations").
// Resuming toward a different -n keeps every delivered solution but may
// reorder the tail relative to a single run at the new target.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"repro/internal/baselines"
	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "satsample:", err)
		os.Exit(1)
	}
}

func run() (err error) {
	var (
		inPath  = flag.String("in", "", "DIMACS CNF input file (required)")
		n       = flag.Int("n", 1000, "number of unique solutions to sample (0 = unbounded: stream until timeout or interrupt)")
		timeout = flag.Duration("timeout", 30*time.Second, "sampling timeout (0 = none)")
		sampler = flag.String("sampler", "gd", "sampler: gd | diff | cmsgen | unigen")
		batch   = flag.Int("batch", 4096, "GD batch size")
		iters   = flag.Int("iters", 5, "GD iterations per round")
		lr      = flag.Float64("lr", 10, "GD learning rate")
		seed    = flag.Int64("seed", 1, "random seed")
		workers = flag.Int("workers", 0, "parallel workers (0 = all CPUs, 1 = sequential)")
		project = flag.String("project", "", "comma-separated projection variables (overrides c ind/p show lines; gd only)")
		verbose = flag.Bool("v", false, "verbose transformation/config output")
		outPath = flag.String("out", "", "write solutions to file instead of stdout")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the sampling loop to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
		maxCNF  = flag.Int64("maxcnf", 64<<20, "maximum DIMACS input bytes; var/clause/literal limits derive from it (0 = unlimited)")
		ckptOut = flag.String("checkpoint", "", "write the session checkpoint to this file when the run ends (gd only)")
		resume  = flag.String("resume", "", "resume from a checkpoint file instead of -in (gd only; batch/seed/projection come from the checkpoint)")
	)
	flag.Parse()
	if *inPath == "" && *resume == "" {
		fmt.Fprintln(os.Stderr, "satsample: -in (or -resume) is required")
		flag.Usage()
		os.Exit(2)
	}
	if (*ckptOut != "" || *resume != "") && *sampler != "gd" {
		return fmt.Errorf("checkpoint/resume require -sampler gd (baselines carry no restorable state)")
	}
	if *resume != "" && (*inPath != "" || *project != "") {
		return fmt.Errorf("-resume replaces -in and carries its own projection; drop -in/-project")
	}
	// The same derived-limit validation path satserved applies to network
	// input (cnf.LimitsForBytes), so every entry point rejects oversized
	// or degenerate formulas identically. A resumed run reads its formula
	// out of the checkpoint envelope instead.
	var f *cnf.Formula
	var ck *sampling.Checkpoint
	if *resume != "" {
		env, rerr := os.ReadFile(*resume)
		if rerr != nil {
			return rerr
		}
		ck, rerr = sampling.DecodeCheckpoint(env)
		if rerr != nil {
			return rerr
		}
		f = ck.Formula()
	} else {
		var rerr error
		f, rerr = cnf.ReadDIMACSFileLimits(*inPath, cnf.LimitsForBytes(*maxCNF))
		if rerr != nil {
			return rerr
		}
	}
	if *project != "" {
		proj, perr := cnf.ParseProjectionList(*project)
		if perr != nil {
			return perr
		}
		if perr := cnf.ValidateProjection(f.NumVars, proj); perr != nil {
			return perr
		}
		f.Projection = proj
	}
	if len(f.Projection) > 0 && *sampler != "gd" {
		if *project != "" {
			// An explicit -project on a non-gd sampler is a contract the
			// baseline cannot honour; refuse rather than silently sample
			// full-assignment identity.
			return fmt.Errorf("sampler %q does not support projected sampling (use -sampler gd)", *sampler)
		}
		fmt.Fprintf(os.Stderr, "satsample: warning: %q ignores the input's projection (%d vars); counting full-assignment identity\n",
			*sampler, len(f.Projection))
	}
	dev := tensor.Parallel()
	if *workers == 1 {
		dev = tensor.Sequential()
	} else if *workers > 1 {
		dev = tensor.ParallelN(*workers)
	}

	out := os.Stdout
	if *outPath != "" {
		fh, cerr := os.Create(*outPath)
		if cerr != nil {
			return cerr
		}
		// Close errors surface (they can hide a lost final write); an
		// earlier error takes precedence.
		defer func() {
			if cerr := fh.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
		out = fh
	}
	w := bufio.NewWriter(out)
	defer func() {
		if ferr := w.Flush(); ferr != nil && err == nil {
			err = ferr
		}
	}()

	// SIGINT/SIGTERM cancel sampling; the deferred flush above still runs,
	// so everything streamed before the signal reaches the output.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	var s sampling.Sampler
	alreadyDelivered := 0
	if ck != nil {
		sess, rerr := sampling.NewCompiler(1).Resume(ck, dev)
		if rerr != nil {
			return rerr
		}
		alreadyDelivered = sess.Delivered()
		if *verbose {
			fmt.Fprintf(os.Stderr, "resume: %s, %d solutions already delivered\n", ck.Key()[:12], alreadyDelivered)
		}
		s = sess
	} else {
		s, err = buildSampler(f, *sampler, sampling.SessionConfig{
			BatchSize:    *batch,
			Iterations:   *iters,
			LearningRate: float32(*lr),
			Seed:         *seed,
			Device:       dev,
		}, *verbose)
		if err != nil {
			return err
		}
	}

	// Profiling brackets the sampling loop only: the CPU profile starts
	// after the transform/compile so hot-path work isn't diluted by
	// one-time setup, and the heap profile is written after a final GC so
	// it shows live sampling state, not garbage.
	if *cpuProf != "" {
		fh, perr := os.Create(*cpuProf)
		if perr != nil {
			return perr
		}
		if perr := pprof.StartCPUProfile(fh); perr != nil {
			fh.Close()
			return perr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := fh.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	if *memProf != "" {
		defer func() {
			fh, perr := os.Create(*memProf)
			if perr != nil {
				if err == nil {
					err = perr
				}
				return
			}
			runtime.GC()
			if perr := pprof.WriteHeapProfile(fh); perr != nil && err == nil {
				err = perr
			}
			if cerr := fh.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}

	// The timeout budgets sampling only — it starts after the CNF
	// transform and engine compile, so a slow-to-compile instance still
	// gets its full sampling window.
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	written := 0
	st, serr := s.Stream(ctx, *n, func(sol []bool) error {
		written++
		return writeBits(w, sol)
	})
	if serr != nil {
		return fmt.Errorf("streaming solutions: %w", serr)
	}
	status := ""
	switch {
	case st.Timeout && errors.Is(ctx.Err(), context.Canceled):
		status = " (interrupted, partial results flushed)"
	case st.Timeout:
		status = " (timeout, partial results flushed)"
	case st.Exhausted:
		status = " (solution space exhausted)"
	}
	kind := "unique"
	if sess, ok := s.(*sampling.Session); ok {
		if p := sess.Projection(); len(p) > 0 {
			kind = fmt.Sprintf("projected-distinct (%d vars)", len(p))
		}
	}
	fmt.Fprintf(os.Stderr, "%s: %d %s solutions in %v (%.1f sol/s, %d calls, total %v)%s\n",
		s.Name(), st.Unique, kind, st.Elapsed.Round(time.Millisecond), st.Throughput(), st.Calls,
		time.Since(start).Round(time.Millisecond), status)
	if *ckptOut != "" {
		sess := s.(*sampling.Session) // gd was enforced at flag parse
		env, cerr := sess.Checkpoint()
		if cerr != nil {
			return fmt.Errorf("checkpoint: %w", cerr)
		}
		if cerr := os.WriteFile(*ckptOut, env, 0o644); cerr != nil {
			return fmt.Errorf("checkpoint: %w", cerr)
		}
		fmt.Fprintf(os.Stderr, "checkpoint: %d bytes -> %s (resume with -resume %s)\n", len(env), *ckptOut, *ckptOut)
	}
	if written != st.Unique-alreadyDelivered {
		return fmt.Errorf("streamed %d of %d solutions", written, st.Unique-alreadyDelivered)
	}
	return nil
}

// buildSampler constructs the requested sampler behind the unified
// streaming interface; the GD sampler compiles through the service layer.
func buildSampler(f *cnf.Formula, kind string, cfg sampling.SessionConfig, verbose bool) (sampling.Sampler, error) {
	switch kind {
	case "gd":
		p, err := sampling.CompileProblem(f)
		if err != nil {
			return nil, err
		}
		if verbose {
			ext := p.Extraction()
			fmt.Fprintf(os.Stderr, "transform: %v (PI=%d IV=%d PO=%d, ops %d -> %d)\n",
				ext.TransformTime.Round(time.Millisecond),
				len(ext.PrimaryInputs), len(ext.Intermediates), len(ext.PrimaryOutputs),
				f.OpCount2(), ext.Circuit.OpCount2())
		}
		s, err := p.NewSession(cfg)
		if err != nil {
			return nil, err
		}
		if verbose {
			fmt.Fprintln(os.Stderr, s.Core())
		}
		return s, nil
	case "diff":
		d := baselines.NewDiffSampler(f, cfg.Seed, cfg.Device)
		d.BatchSize = cfg.BatchSize
		return d, nil
	case "cmsgen":
		return baselines.NewCMSGenLike(f, cfg.Seed), nil
	case "unigen":
		return baselines.NewUniGenLike(f, cfg.Seed), nil
	default:
		return nil, fmt.Errorf("unknown sampler %q", kind)
	}
}

func writeBits(w *bufio.Writer, bits []bool) error {
	for _, b := range bits {
		c := byte('0')
		if b {
			c = '1'
		}
		if err := w.WriteByte(c); err != nil {
			return err
		}
	}
	return w.WriteByte('\n')
}
