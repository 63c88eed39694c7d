package verify_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cost"
	"repro/internal/online"
	"repro/internal/replica"
	"repro/internal/sched"
	"repro/internal/verify"
	"repro/internal/window"
)

// TestMaxIntCapacitySchedulesLikeUnbounded: a capacity no processor
// can fill is no constraint, so every capacity-aware scheduler must
// answer exactly as with capacity 0 (unbounded). The feasibility check
// used to multiply the capacity by the processor count, which wraps at
// math.MaxInt and refused every such instance as "exceeding total
// memory".
func TestMaxIntCapacitySchedulesLikeUnbounded(t *testing.T) {
	run := map[string]func(p *sched.Problem) (any, error){}
	for _, s := range append(sched.All(), sched.ExactSCDS{}, sched.ExactLOMCDS{},
		online.Scheduler{Policy: online.StayPut}, online.Scheduler{Policy: online.Chase},
		online.Scheduler{Policy: online.Hysteresis}) {
		run[s.Name()] = func(p *sched.Problem) (any, error) { return s.Schedule(p) }
	}
	for _, m := range []window.Method{window.LocalCenters, window.GlobalCenters} {
		run["window-"+m.String()] = func(p *sched.Problem) (any, error) {
			return window.Schedule(p, window.Greedy(p, m), m)
		}
	}
	run["replica-2"] = func(p *sched.Problem) (any, error) { return replica.Greedy{MaxCopies: 2}.Schedule(p) }

	rng := rand.New(rand.NewSource(2021))
	for i := 0; i < 40; i++ {
		g := tableOnlyGrid(rng)
		nd := 1 + rng.Intn(2*g.NumProcs()+3)
		tr := verify.RandomTrace(rng, g, nd, 1+rng.Intn(6), 1+rng.Intn(2*nd))
		m := cost.NewModel(tr)
		table := m.BuildResidenceTable()
		for name, schedule := range run {
			ctx := fmt.Sprintf("instance %d (%v, %d items) %s", i, g, nd, name)
			want, err := schedule(&sched.Problem{Model: m, Table: table})
			if err != nil {
				t.Fatalf("%s: unbounded capacity refused: %v", ctx, err)
			}
			got, err := schedule(&sched.Problem{Model: m, Table: table, Capacity: math.MaxInt})
			if err != nil {
				t.Fatalf("%s: capacity MaxInt refused: %v", ctx, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: capacity MaxInt schedule %v differs from unbounded %v", ctx, got, want)
			}
		}
	}
}
