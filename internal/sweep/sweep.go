// Package sweep fans independent simulation points out over a worker
// pool. The paper's evaluation is a grid of embarrassingly-parallel
// machine.Simulate points (each owns its own cache.Hierarchy and PRNG
// seed), yet the experiments driver used to walk them strictly
// sequentially; this package gives every sweep the machine's cores while
// keeping results in deterministic input order.
package sweep

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"buckwild/internal/machine"
	"buckwild/internal/obs"
)

// Map runs fn(i) for every i in [0, n) on a pool of workers goroutines
// and returns the results in input order. workers <= 0 selects
// runtime.GOMAXPROCS(0); the pool never exceeds n. If any calls fail, Map
// returns the error of the lowest-indexed failure — the same error a
// sequential loop would surface first — regardless of worker count or
// scheduling, so parallel and serial runs are interchangeable.
func Map[R any](workers, n int, fn func(i int) (R, error)) ([]R, error) {
	return MapCtx(context.Background(), workers, n, fn)
}

// MapCtx is Map bounded by a context: once ctx is cancelled no new
// indices are dispatched, in-flight calls are awaited, and MapCtx returns
// context.Cause(ctx). A failure of a dispatched call still wins over the
// cancellation (lowest-index-failure semantics are unchanged); callers
// whose fn is itself context-aware get mid-point cancellation on top of
// the between-point cut-off implemented here.
func MapCtx[R any](ctx context.Context, workers, n int, fn func(i int) (R, error)) ([]R, error) {
	return mapWorkerCtx(ctx, workers, n, func(_ context.Context, i int) (R, error) {
		return fn(i)
	})
}

// mapWorkerCtx is the pool behind MapCtx; fn additionally receives the
// worker's context. When the bounding context carries an obs.Tracer,
// each pool worker gets its own trace track (so context-aware fns — the
// machine simulations — render their sub-spans on their worker's track,
// nested under the per-task span recorded here) and every dispatched
// task is recorded as one "sweep/task" span.
func mapWorkerCtx[R any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	tracer := obs.TracerFrom(ctx)
	results := make([]R, n)
	if workers == 1 {
		// A single worker inherits the caller's track.
		tid := obs.TraceTID(ctx)
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, context.Cause(ctx)
			}
			span := tracer.Begin("sweep", "task", tid)
			r, err := fn(ctx, i)
			span.EndArgs(map[string]string{"index": fmt.Sprint(i)})
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	var (
		mu     sync.Mutex
		next   int
		errIdx = n
		first  error
		wg     sync.WaitGroup
	)
	claim := func() (int, bool) {
		if ctx.Err() != nil {
			return 0, false
		}
		mu.Lock()
		defer mu.Unlock()
		// Indexes past the lowest failure cannot change the outcome;
		// skip them so errors cancel the remaining work.
		if next >= n || next >= errIdx {
			return 0, false
		}
		i := next
		next++
		return i, true
	}
	fail := func(i int, err error) {
		mu.Lock()
		defer mu.Unlock()
		if i < errIdx {
			errIdx, first = i, err
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			wctx := ctx
			tid := obs.TraceTID(ctx)
			if tracer != nil {
				// Track ids are 1-based so the coordinator keeps track 0.
				tid = w + 1
				wctx = obs.ContextWithTraceTID(ctx, tid)
				tracer.NameTrack(tid, fmt.Sprintf("sweep-worker-%d", tid))
			}
			for {
				i, ok := claim()
				if !ok {
					return
				}
				span := tracer.Begin("sweep", "task", tid)
				r, err := fn(wctx, i)
				span.EndArgs(map[string]string{"index": fmt.Sprint(i)})
				if err != nil {
					fail(i, err)
					continue
				}
				results[i] = r
			}
		}(w)
	}
	wg.Wait()
	if first != nil {
		return nil, first
	}
	if err := ctx.Err(); err != nil {
		return nil, context.Cause(ctx)
	}
	return results, nil
}

// Simulate runs every workload point on the machine configuration through
// the worker pool and returns the results in input order.
func Simulate(mc machine.Config, points []machine.Workload, workers int) ([]*machine.Result, error) {
	return SimulateCtx(context.Background(), mc, points, workers)
}

// SimulateCtx is Simulate bounded by a context: cancellation stops
// dispatching new points and interrupts the running simulations at their
// next measurement round.
func SimulateCtx(ctx context.Context, mc machine.Config, points []machine.Workload, workers int) ([]*machine.Result, error) {
	return mapWorkerCtx(ctx, workers, len(points), func(wctx context.Context, i int) (*machine.Result, error) {
		return machine.SimulateCtx(wctx, mc, points[i])
	})
}

// SimulateEachCtx is SimulateCtx plus a per-point observer: after all
// points complete, each is invoked in strict input order on the calling
// goroutine, so observers may aggregate without synchronization (the
// experiments driver folds per-point cache and access statistics into
// its run report this way). each may be nil.
func SimulateEachCtx(ctx context.Context, mc machine.Config, points []machine.Workload, workers int, each func(i int, r *machine.Result)) ([]*machine.Result, error) {
	res, err := SimulateCtx(ctx, mc, points, workers)
	if err != nil {
		return nil, err
	}
	if each != nil {
		for i, r := range res {
			each(i, r)
		}
	}
	return res, nil
}
