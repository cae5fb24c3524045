package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/benchgen"
	"repro/internal/cnf"
	"repro/internal/sampling"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/tensor"
)

// ServeRow is one load-generator measurement: a concurrency level against
// the in-process satserved instance.
type ServeRow struct {
	Clients   int     `json:"clients"`
	Requests  int     `json:"requests"` // completed streams (after client-side retries)
	Shed      int     `json:"shed"`     // 429/503 legs absorbed by the retrying client
	Errors    int     `json:"errors"`   // failed requests (transport or unexpected status)
	P50MS     float64 `json:"p50_ms"`   // request latency, median
	P99MS     float64 `json:"p99_ms"`   // request latency, 99th percentile
	SolPerSec float64 `json:"sol_per_sec"`
	Solutions int     `json:"solutions"` // aggregate across requests
}

// maxCNFBytes is the in-process server's DIMACS input limit.
const maxCNFBytes = 8 << 20

// runServe is the `-exp serve` load generator: it starts satserved
// in-process on a loopback port (sharing the run's compiler, so the
// cache counters in the report cover it) and sweeps concurrency levels
// over the small suite, measuring per-request latency (p50/p99) and
// aggregate verified-solution throughput — the service-level view of the
// same amortization Table II measures per instance.
func runServe(ctx context.Context, compiler *sampling.Compiler, dev tensor.Device, target int) ([]ServeRow, error) {
	fmt.Printf("== Serve: satserved load generator (target %d per request) ==\n\n", target)

	srv := server.New(server.Config{
		Compiler: compiler,
		Device:   dev,
		Workers:  4,
		Limits:   cnf.LimitsForBytes(maxCNFBytes),
		// Per-request logs would swamp the bench tables; the measurements
		// below are the observable output here.
		Log: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	defer srv.Close() // removes the server's private resume spool
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()

	ins := benchgen.SmallSuite()
	bodies := make([]string, len(ins))
	for i, in := range ins {
		bodies[i] = in.Formula.DIMACSString()
	}

	const requestsPerClient = 4
	levels := []int{1, 2, 4, 8, 16}
	rows := make([]ServeRow, 0, len(levels))
	fmt.Printf("%8s %10s %6s %6s %10s %10s %12s\n", "clients", "requests", "shed", "errors", "p50 ms", "p99 ms", "sol/s")
	for _, clients := range levels {
		if ctx.Err() != nil {
			break
		}
		row := serveLevel(ctx, base, bodies, clients, requestsPerClient, target)
		rows = append(rows, row)
		fmt.Printf("%8d %10d %6d %6d %10.2f %10.2f %12.0f\n",
			row.Clients, row.Requests, row.Shed, row.Errors, row.P50MS, row.P99MS, row.SolPerSec)
	}
	return rows, nil
}

// serveLevel runs one concurrency level: `clients` goroutines, each
// issuing sequential requests round-robin over the formulas through the
// retrying client — sheds are absorbed by its Retry-After backoff (and
// counted), so every request either completes or is a real error.
func serveLevel(ctx context.Context, base string, bodies []string, clients, perClient, target int) ServeRow {
	row := ServeRow{Clients: clients}
	var shedLegs atomic.Int64
	cl := client.New(base, client.Config{
		MaxAttempts: 6,
		BaseBackoff: 25 * time.Millisecond,
		MaxBackoff:  time.Second,
		OnRetry: func(attempt, status int, wait time.Duration, resume bool) {
			if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
				shedLegs.Add(1)
			}
		},
	})
	var mu sync.Mutex
	var lats []time.Duration
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				if ctx.Err() != nil {
					return
				}
				body := bodies[(c+i)%len(bodies)]
				t0 := time.Now()
				res, err := cl.Sample(ctx, client.Request{
					DIMACS: body, Target: target, Timeout: 10 * time.Second,
				})
				lat := time.Since(t0)
				mu.Lock()
				switch {
				case err != nil:
					// Cancellation mid-run drops the sample; anything else
					// is a real failure and must fail the sweep.
					if ctx.Err() == nil && !errors.Is(err, context.Canceled) {
						row.Errors++
						fmt.Fprintln(os.Stderr, "paperbench: serve request:", err)
					}
				default:
					row.Requests++
					row.Solutions += len(res.Solutions)
					lats = append(lats, lat)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	row.Shed = int(shedLegs.Load())
	wall := time.Since(start)
	if wall > 0 {
		row.SolPerSec = float64(row.Solutions) / wall.Seconds()
	}
	row.P50MS, row.P99MS = percentiles(lats)
	return row
}

func percentiles(lats []time.Duration) (p50, p99 float64) {
	if len(lats) == 0 {
		return 0, 0
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	at := func(q float64) float64 {
		i := int(q * float64(len(lats)-1))
		return float64(lats[i].Microseconds()) / 1e3
	}
	return at(0.50), at(0.99)
}
