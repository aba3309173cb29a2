package main

import (
	"fmt"
	"math/rand/v2"

	"github.com/pglp/panda/internal/scenario"
)

// Sizes of the generated inputs, shared by every workload.
const (
	// devices is the simulated population; each is its own device.
	devices = 1000
	// trajSteps is the length of each device's ground-truth trajectory:
	// four simulated days of the commuter rhythm, cycled for timesteps
	// beyond it.
	trajSteps = 4 * 24
	// queryCount is the length of the analysis reader's query
	// sequence, cycled.
	queryCount = 4096
)

// Query kinds of the analysis-mixed reader.
const (
	qDensityLatest = iota
	qDensityOlder
	qSeries
	qExposure
	qCensus
	qHealthCode
	numQueryKinds
)

// query is one reader step: its kind, an older timestep (for the kinds
// that read history) and a user (for health codes).
type query struct {
	kind, olderT, user int
}

// inputs is everything the program receives, generated from the seed
// before any set-up clock starts.
type inputs struct {
	seed uint64
	// traj[u] is device u's ground-truth cell per timestep.
	traj [][]int
	// cells is the plan's infection-cell order: its waves' hotspot
	// cells, most popular workplace first.
	cells []int
	// queries is the analysis reader's sequence.
	queries []query
	// feedOrder is the order in which the analysis writer cycles over
	// devices.
	feedOrder []int
}

// genInputs expands the seed through the commuter scenario plan.
func genInputs(seed uint64, users int) (*inputs, error) {
	gen, err := scenario.Lookup("commuter")
	if err != nil {
		return nil, err
	}
	plan, err := gen.Plan(scenario.Config{Users: users, Steps: trajSteps, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &inputs{seed: seed, traj: make([][]int, users)}
	for u := range in.traj {
		in.traj[u] = plan.Trajectory(u)
	}
	for _, w := range plan.Waves {
		in.cells = append(in.cells, w.Infect...)
	}
	if len(in.cells) != len(plan.InfectedCells()) {
		return nil, fmt.Errorf("plan infects %d cells over its waves but lists %d", len(in.cells), len(plan.InfectedCells()))
	}
	rng := rand.New(rand.NewPCG(seed, 0x7175657279)) // "query"
	in.queries = make([]query, queryCount)
	for i := range in.queries {
		in.queries[i] = query{
			kind:   rng.IntN(numQueryKinds),
			olderT: rng.IntN(preloadSteps - seriesLen),
			user:   rng.IntN(users),
		}
	}
	in.feedOrder = rng.Perm(users)
	return in, nil
}

// digest is an FNV-1a hash over every generated input, so two runs can
// show they received the same inputs.
func (in *inputs) digest() string {
	h := uint64(14695981039346656037)
	word := func(v int) {
		x := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	for _, tr := range in.traj {
		word(len(tr))
		for _, c := range tr {
			word(c)
		}
	}
	word(len(in.cells))
	for _, c := range in.cells {
		word(c)
	}
	for _, q := range in.queries {
		word(q.kind)
		word(q.olderT)
		word(q.user)
	}
	for _, u := range in.feedOrder {
		word(u)
	}
	word(feedRate)
	word(feedBatch)
	return fmt.Sprintf("%016x", h)
}
