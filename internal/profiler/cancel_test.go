package profiler_test

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cudaadvisor/internal/experiments"
	"cudaadvisor/internal/profcache"
	"cudaadvisor/internal/profiler"
)

// TestOwnerDisconnectMidDerivationHandsOver is internal/serve's
// TestOwnerDisconnectHandsOver with the owner's client gone while its
// fill derives: four identical requests on one cache, and the first —
// the one running the fill — is parked one kernel instance into its
// run's Detach until its context ends. Detach must stop there, so that
// one of the other three takes the fill over and all three get the
// uncached bytes: 1 miss (the takeover), 2 memo hits, 1 completed run.
func TestOwnerDisconnectMidDerivationHandsOver(t *testing.T) {
	params := map[string]string{"app": "bfs", "mode": "rd"}
	req, err := experiments.NewRequest("profile", func(name string) string { return params[name] }, nil)
	if err != nil {
		t.Fatal(err)
	}
	write := func(env experiments.Env) (string, error) {
		var b bytes.Buffer
		err := req.Write(&b, env)
		return b.String(), err
	}
	want, err := write(experiments.Env{})
	if err != nil {
		t.Fatal(err)
	}

	cache := profcache.New("")
	ownerCtx, disconnect := context.WithCancel(context.Background())
	parked := make(chan struct{})
	var instances atomic.Int32
	defer profiler.OnDerive(func() {
		if instances.Add(1) == 2 { // the owner's fill, one instance in
			close(parked)
			<-ownerCtx.Done()
		}
	})()
	ownerErr := make(chan error, 1)
	go func() {
		_, err := write(experiments.Env{Cache: cache, Ctx: ownerCtx})
		ownerErr <- err
	}()
	<-parked

	const waiters = 3
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if got, err := write(experiments.Env{Cache: cache}); err != nil || got != want {
				t.Errorf("waiter %d: %v, output matches the uncached render: %v", i, err, got == want)
			}
		}(i)
	}
	// Lets the waiters park on the owner's entry; one that gets there
	// after the owner gave up becomes the new owner itself, and every
	// assertion below holds just the same.
	time.Sleep(50 * time.Millisecond)
	disconnect()
	if err := <-ownerErr; !errors.Is(err, context.Canceled) {
		t.Errorf("owner err = %v, want its own context.Canceled", err)
	}
	wg.Wait()
	if s := cache.Stats(); s.Misses != 1 || s.MemoHits != waiters-1 || s.Runs != 1 {
		t.Errorf("stats = %+v, want 1 miss (the takeover), %d memo hits and 1 run", s, waiters-1)
	}
}
