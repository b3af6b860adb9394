package ipc

import (
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentClientCalls hammers a single Client from many
// goroutines sharing one connection: frames must never interleave and
// every caller must get the response to its own request.
func TestConcurrentClientCalls(t *testing.T) {
	c, _ := startServer(t)

	const goroutines = 8
	const iters = 40
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				name := fmt.Sprintf("/bin/g%d-i%d", g, i)
				resp, err := c.Call(&Request{Op: OpRun, Path: name})
				if err != nil {
					errs[g] = err
					return
				}
				if want := "ran " + name; resp.Output != want {
					errs[g] = fmt.Errorf("got response %q, want %q (stolen frame?)", resp.Output, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}
