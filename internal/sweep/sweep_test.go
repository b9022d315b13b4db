package sweep

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"buckwild/internal/kernels"
	"buckwild/internal/machine"
)

func TestMapOrderAndValues(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 7, 64} {
		got, err := Map(workers, 33, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 33 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Errorf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("empty sweep: got %v, %v", got, err)
	}
}

func TestMapLowestIndexedErrorWins(t *testing.T) {
	errA := errors.New("a")
	for _, workers := range []int{1, 3, 16} {
		_, err := Map(workers, 40, func(i int) (int, error) {
			switch i {
			case 5:
				return 0, errA
			case 17, 31:
				return 0, fmt.Errorf("later failure %d", i)
			}
			return i, nil
		})
		if !errors.Is(err, errA) {
			t.Errorf("workers=%d: err = %v, want lowest-indexed %v", workers, err, errA)
		}
	}
}

func TestMapErrorCancelsRemaining(t *testing.T) {
	var calls atomic.Int64
	_, err := Map(1, 1000, func(i int) (int, error) {
		calls.Add(1)
		if i == 3 {
			return 0, errors.New("boom")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := calls.Load(); n > 4 {
		t.Errorf("serial path ran %d calls after failure at index 3", n)
	}
}

// TestSimulateDeterministic is the sweep-determinism contract: the same
// grid of points run with 1 worker and with many workers must produce
// identical Result slices, ordering and values. Run with -race this also
// exercises the pool for data races through the full simulator (shared
// stream memoization cache included).
func TestSimulateDeterministic(t *testing.T) {
	mc := machine.Xeon()
	var points []machine.Workload
	for _, threads := range []int{1, 4, 9} {
		for _, p := range []kernels.Prec{kernels.F32, kernels.I8} {
			points = append(points, machine.Workload{
				D: p, M: p,
				Variant:     kernels.HandOpt,
				Quant:       kernels.QShared,
				QuantPeriod: 8,
				ModelSize:   1 << 12,
				Threads:     threads,
				Prefetch:    true,
				Seed:        1,
			})
		}
	}
	serial, err := Simulate(mc, points, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := Simulate(mc, points, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("length mismatch: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if !reflect.DeepEqual(serial[i], parallel[i]) {
			t.Errorf("point %d differs:\n  serial:   %+v\n  parallel: %+v", i, *serial[i], *parallel[i])
		}
	}
}

func TestSimulateEachOrdered(t *testing.T) {
	mc := machine.Xeon()
	var points []machine.Workload
	for _, threads := range []int{1, 2, 4} {
		points = append(points, machine.Workload{
			D: kernels.I8, M: kernels.I8,
			Variant:     kernels.HandOpt,
			Quant:       kernels.QShared,
			QuantPeriod: 8,
			ModelSize:   1 << 12,
			Threads:     threads,
			Prefetch:    true,
			Seed:        1,
		})
	}
	var order []int
	var coh uint64
	res, err := SimulateEachCtx(context.Background(), mc, points, 4, func(i int, r *machine.Result) {
		order = append(order, i)
		coh += r.CoherenceEvents
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(points) {
		t.Fatalf("got %d results", len(res))
	}
	if !reflect.DeepEqual(order, []int{0, 1, 2}) {
		t.Errorf("callback order = %v", order)
	}
	// The 4-thread point shares a small model, so the sweep total must be
	// nonzero — proof the per-point stats reached the observer.
	if coh == 0 {
		t.Error("no coherence events aggregated across the sweep")
	}
	// A nil callback is allowed.
	if _, err := SimulateEachCtx(context.Background(), mc, points[:1], 1, nil); err != nil {
		t.Fatal(err)
	}
}
