package bench

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"omos"
	"omos/internal/daemon"
	"omos/internal/ipc"
)

// IPCMux measures what tagged pipelining buys on one shared
// connection: N goroutines hammer warm OpRun calls through a single
// client, once with the bench holding a mutex around each Call (one
// call in flight: every call holds the connection for its full round
// trip) and once without (calls interleave; completions return out of
// order).  Rows report wall-clock ops/sec — pipelining is a queueing
// phenomenon, invisible to simulated cycles, like the soak table.  A
// closing row reports the framing hot path's measured allocations per
// round trip (pinned to zero by TestFramedHotPathAllocFree).
func IPCMux(cfg Config) (*Table, error) {
	perG := 20
	if cfg.ItersHPUX >= 1000 {
		perG = 80
	}
	t := &Table{
		ID:    "ipcmux",
		Title: "tagged pipelining: warm ops/sec on one shared connection, one call in flight vs pipelined",
		Iters: perG,
		Notes: []string{
			"wall-clock ops/sec, not simulated cycles (pipelining is queueing, which cycles cannot see)",
			"all goroutines share ONE client and ONE connection; one-in-flight rows hold a mutex around each Call",
			"ops are warm /bin/t runs: image cache hot, so the measurement is transport + dispatch, not builds",
			"allocs/op probes the framing hot path; the test suite pins it at exactly zero",
		},
	}
	for _, g := range []int{8, 64} {
		serial, err := muxThroughputRow(g, perG, true)
		if err != nil {
			return nil, err
		}
		pipelined, err := muxThroughputRow(g, perG, false)
		if err != nil {
			return nil, err
		}
		if s := serial.Extra["ops-per-sec"]; s > 0 {
			// Stored as a percentage so the table's integer metric
			// formatting keeps the precision (122 = 1.22x one in flight).
			pipelined.Extra["speedup-vs-one-in-flight-pct"] = 100 * pipelined.Extra["ops-per-sec"] / s
		}
		t.Rows = append(t.Rows, serial, pipelined)
	}

	t.Rows = append(t.Rows, Row{
		Label: "framing hot path",
		Extra: map[string]float64{"allocs-per-op": ipc.AllocsPerFrameOp(2000)},
	})
	return t, nil
}

// muxThroughputRow serves a fresh daemon, warms the /bin/t image, and
// drives goroutines*perG warm runs through one shared client; serial
// allows only one call in flight at a time.
func muxThroughputRow(goroutines, perG int, serial bool) (Row, error) {
	sys, err := omos.NewSystem()
	if err != nil {
		return Row{}, err
	}
	defer sys.Close()
	if err := sys.DefineLibrary("/lib/l",
		`(source "c" "int triple(int x) { return 3 * x; }")`); err != nil {
		return Row{}, err
	}
	if err := sys.Define("/bin/t",
		`(merge /lib/crt0.o (source "c" "extern int triple(int); int main() { return triple(14); }") /lib/l)`); err != nil {
		return Row{}, err
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return Row{}, err
	}
	srv := ipc.NewServer(daemon.New(sys))
	go srv.Serve(l)
	defer srv.Shutdown()

	c, err := ipc.DialWith(l.Addr().String(), ipc.Options{
		ConnectTimeout: 5 * time.Second,
		CallTimeout:    30 * time.Second,
	})
	if err != nil {
		return Row{}, err
	}
	defer c.Close()

	// Warm-up: build the image once so measured runs are cache hits.
	if resp, err := c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/t"}); err != nil {
		return Row{}, err
	} else if resp.ExitCode != 42 {
		return Row{}, fmt.Errorf("bench: ipcmux warm-up exit = %d, want 42", resp.ExitCode)
	}

	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
		badExit  int
		inFlight sync.Mutex // held around each Call when serial
	)
	call := func() (*ipc.Response, error) {
		if serial {
			inFlight.Lock()
			defer inFlight.Unlock()
		}
		return c.Call(&ipc.Request{Op: ipc.OpRun, Path: "/bin/t"})
	}
	start := time.Now()
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				resp, err := call()
				if err != nil || resp.ExitCode != 42 {
					mu.Lock()
					if err != nil && firstErr == nil {
						firstErr = err
					}
					if err == nil {
						badExit++
					}
					mu.Unlock()
					return
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return Row{}, fmt.Errorf("bench: ipcmux %d goroutines: %w", goroutines, firstErr)
	}
	if badExit > 0 {
		return Row{}, errors.New("bench: ipcmux: wrong exit codes under concurrent load")
	}

	mode := "pipelined"
	if serial {
		mode = "one in flight"
	}
	ops := goroutines * perG
	return Row{
		Label: fmt.Sprintf("%2d goroutines, %s", goroutines, mode),
		Extra: map[string]float64{
			"ops":         float64(ops),
			"ops-per-sec": float64(ops) / elapsed.Seconds(),
		},
	}, nil
}
