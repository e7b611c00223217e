package runner

import (
	"sync"
	"sync/atomic"
)

// tryAcquire takes a worker slot only if one is free right now. Unlike
// acquire it never blocks, which is what makes Shards safe to call from
// inside a gated leaf job.
func (p *Pool) tryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		return true
	default:
		return false
	}
}

// Shards runs fn(0) … fn(n-1) on the calling goroutine plus any idle
// workers it can recruit from the pool without waiting: each helper takes
// a slot with a non-blocking acquire and exits when the shard queue
// drains. The caller always participates, so Shards makes progress even
// when the pool is fully busy — it degrades to inline serial execution —
// and therefore, unlike Map and DoCtx, it MAY be called from inside a gated
// leaf job: it can only add concurrency the pool has to spare, never
// block waiting for it.
//
// This is the intra-launch fan-out primitive: the GPU executor uses it to
// run the independent SM shards of a hook-free kernel launch in parallel
// while the experiment layer's leaf jobs (whole simulator runs) hold the
// pool's slots. At -j 1, or when every slot is busy with other cells, the
// shards run inline on the caller; when slots are free (a single launch
// on an idle pool) they spread across up to Workers() goroutines.
//
// fn must be safe for concurrent use and shards must be mutually
// independent: results are written by shard index into caller-owned
// storage, so the assembled outcome cannot depend on which goroutine ran
// which shard. A nil pool runs the shards inline, in index order.
//
// Every shard runs even if another shard panics; the panic with the
// lowest shard index is re-raised on the calling goroutine after the
// join, so panic identity is deterministic at every worker count and the
// caller's recovery (e.g. the pool's own leaf-job protect) sees it
// exactly as the serial path would.
func Shards(p *Pool, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	var next atomic.Int64
	var mu sync.Mutex
	panicIdx, panicVal := -1, any(nil)
	run := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			func() {
				defer func() {
					if r := recover(); r != nil {
						mu.Lock()
						if panicIdx < 0 || i < panicIdx {
							panicIdx, panicVal = i, r
						}
						mu.Unlock()
					}
				}()
				fn(i)
			}()
		}
	}
	var wg sync.WaitGroup
	if p != nil {
		helpers := p.Workers() - 1
		if helpers > n-1 {
			helpers = n - 1
		}
		for h := 0; h < helpers && p.tryAcquire(); h++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer p.release()
				run()
			}()
		}
	}
	run()
	wg.Wait()
	if panicIdx >= 0 {
		panic(panicVal)
	}
}
