package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"time"

	"solarsched/internal/core"
	"solarsched/internal/fleet"
	"solarsched/internal/solar"
	"solarsched/internal/supercap"
	"solarsched/internal/task"
)

// netConfig is one trained-DBN configuration, the unit fleet.NetworkFor
// resolves.
type netConfig struct {
	Graph string
	H     int
	Train fleet.TrainSpec
}

func (c netConfig) String() string {
	return fmt.Sprintf("%s/h%d/%dd-s%d-doy%d-e%d", c.Graph, c.H, c.Train.Days, c.Train.Seed, c.Train.DayOfYear, c.Train.FineEpochs)
}

// sweepTrain is the training history of the sweep's and the run jobs'
// networks. It is fixed rather than drawn so that the networks every
// workload shares cost the same on every seed.
var sweepTrain = fleet.TrainSpec{Days: 2, Seed: 9001, DayOfYear: 100, FineEpochs: 40}

// The two decide configurations: A trains on the 5-day default history,
// B is the 2-day network the run jobs' proposed scheduler also uses.
var (
	decideA = netConfig{Graph: "ecg", H: 2, Train: fleet.DefaultTrainSpec()}
	decideB = netConfig{Graph: "shm", H: 4, Train: sweepTrain}
)

// sharedConfigs are the networks every workload's later phases need: one
// per sweep graph plus decide configuration A.
var sharedConfigs = []netConfig{
	{Graph: "wam", H: 4, Train: sweepTrain},
	{Graph: "ecg", H: 4, Train: sweepTrain},
	decideB,
	decideA,
}

// quickConfigs are the networks serve_mixed times cold: the two cheapest
// shared ones, so that a cycle is short enough to repeat in every round.
// Shared networks a workload does not time are built in set-up.
var quickConfigs = []netConfig{sharedConfigs[1], sharedConfigs[2]}

var (
	sweepGraphs     = []string{"wam", "ecg", "shm"}
	sweepSchedulers = []string{"asap", "inter", "intra", "dvfs", "proposed", "hardened"}
	// sweepTraces is the number of weather traces per graph, one starting
	// in each month, so that every seed covers every season and the mean
	// DMR moves only with the weather a seed draws.
	sweepTraces = 12
	sweepDays   = 2
)

// Open-loop traffic of the serve phase. The rates follow from the tail
// rule in stats.go: a decide p99 needs 1,000 samples and a run-job p95
// 200 for ten to lie beyond each, so decides arrive five times as often
// as run jobs and both tails get the same margin. At 200 and 40 per
// second, the shortest traced window (offline_cold's 15.75 s at
// --seconds 45) holds about 31 samples beyond each tail, and each round
// of the shortest serve phase (5.25 s) about 1,000 decides and 200 runs
// for its medians.
//
// Measured on a 2-vCPU VM, closed loop over two connections, solarschedd
// sustained 3,800 decides/s alone, 153 run jobs/s alone and 860 req/s at
// this 5:1 mix, so the 240 req/s offered here is 28% of its capacity. A
// run job took 6-9 ms (serve.job_s), so the one run connection was busy
// a quarter to a third of the time (loadgen.run_conn_busy_ratio
// 0.25-0.38): most run jobs find it idle, and serve.run_p50_ms measures
// service, not queueing behind the previous job.
const (
	decidesPerSecond = 200.0
	runsPerSecond    = 40.0
	// Decides split evenly over the two networks and half of them carry
	// last_period_powers, so each network's resolution cost and both
	// feature paths weigh the same in decide_p50_ms. The shares are a
	// choice, not a measurement of any deployment.
	poweredShare = 0.5
)

func graphOf(name string) (*task.Graph, error) {
	switch name {
	case "wam":
		return task.WAM(), nil
	case "ecg":
		return task.ECG(), nil
	case "shm":
		return task.SHM(), nil
	case "random1":
		return task.RandomCase(1), nil
	}
	return nil, fmt.Errorf("unknown graph %q", name)
}

func genConfig(t fleet.TrainSpec) solar.GenConfig {
	return solar.GenConfig{Base: solar.DefaultTimeBase(t.Days), Seed: t.Seed, DayOfYearStart: t.DayOfYear}
}

// inputs is everything a run feeds the program, generated from the seed.
type inputs struct {
	configs []netConfig // resolved cold and timed by the offline phase
	sweep   fleet.FileSpec
}

// request is one scheduled call of the serve phase. Body is the exact
// bytes sent; decide and spec keep the same input for the in-process
// checks.
type request struct {
	ID     string
	Due    time.Duration
	Run    bool
	Body   []byte
	Config netConfig
	Decide core.DecideRequest
	Spec   fleet.FileSpec
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// makeInputs draws a workload's offline configurations and sweep from
// seed. The serve schedules are drawn later by drawSchedule, once the
// sized banks they must match are known.
func makeInputs(w workload, seed uint64) *inputs {
	in := &inputs{configs: quickConfigs}
	if w.coldConfigs {
		in.configs = coldConfigs(newRand(seed, 1))
	}
	in.sweep = drawSweep(newRand(seed, 2))
	return in
}

// coldConfigs returns offline_cold's configurations: one per graph, at
// bank sizes 2 and 4, plus the 5-day default training history. Only
// ecg's 2-day history is seed-drawn. The DP teacher's cost follows the
// training weather: the four graphs' summed cold-build time ranged from
// 2.9 to 7.5 s over six weather seeds at fixed seasons, a spread no bound
// could hold, while ecg moves that sum by about 0.3 s.
func coldConfigs(r *rand.Rand) []netConfig {
	return []netConfig{
		sharedConfigs[0],
		decideB,
		{Graph: "random1", H: 2, Train: fleet.TrainSpec{Days: 2, Seed: 9002, DayOfYear: 190, FineEpochs: 40}},
		{Graph: "ecg", H: 2, Train: fleet.TrainSpec{Days: 2, Seed: 1 + r.Uint64N(1<<31), DayOfYear: 1 + r.IntN(365), FineEpochs: 40}},
		decideA,
	}
}

// drawSweep returns the sweep fleet: every graph × scheduler on
// sweepTraces traces per graph with seed-drawn weather. Fault intensity
// alternates between 0 and 1 from trace to trace, from a seed-drawn
// start, so each graph runs half its weather with faults.
func drawSweep(r *rand.Rand) fleet.FileSpec {
	train := sweepTrain
	fs := fleet.FileSpec{Defaults: fleet.RunSpec{H: 4, Train: &train}}
	for _, g := range sweepGraphs {
		first := r.IntN(2)
		for k := 0; k < sweepTraces; k++ {
			ts := fleet.TraceSpec{
				Kind: "gen", Days: sweepDays, Seed: 1 + r.Uint64N(1<<31),
				DayOfYear: 15 + k*365/sweepTraces,
			}
			f := float64((first + k) % 2)
			for _, s := range sweepSchedulers {
				fs.Runs = append(fs.Runs, fleet.RunSpec{
					ID:    fmt.Sprintf("%s-%s-k%d", g, s, k),
					Graph: g, Scheduler: s, Trace: ts,
					FaultIntensity: f, FaultSeed: 1 + r.Uint64N(1<<31),
				})
			}
		}
	}
	return fs
}

// decideBody is the wire form of POST /v1/decide.
type decideBody struct {
	Graph            string           `json:"graph"`
	H                int              `json:"h"`
	Train            *fleet.TrainSpec `json:"train"`
	LastPeriodPowers []float64        `json:"last_period_powers,omitempty"`
	Voltages         []float64        `json:"voltages"`
	AccumulatedDMR   float64          `json:"accumulated_dmr,omitempty"`
	PeriodOfDay      int              `json:"period_of_day"`
	ActiveCap        int              `json:"active_cap"`
}

// drawSchedule builds the open-loop arrival schedule: two independent
// Poisson streams (decides and synchronous run jobs) merged by due time.
// banks gives the sized bank of each decide configuration, which sets how
// many voltages a decide carries; sizing may merge capacitors, so it can
// be smaller than H.
func drawSchedule(r *rand.Rand, seconds float64, banks map[netConfig]int) ([]request, error) {
	nDecide := int(math.Round(decidesPerSecond * seconds))
	nRun := int(math.Round(runsPerSecond * seconds))
	// Slot powers for last_period_powers come from real generated weather.
	weather, err := solar.Generate(solar.GenConfig{
		Base: solar.DefaultTimeBase(4), Seed: 1 + r.Uint64N(1<<31), DayOfYearStart: 1 + r.IntN(365),
	})
	if err != nil {
		return nil, err
	}
	p := supercap.DefaultParams()
	var out []request

	due := time.Duration(0)
	for i := 0; i < nDecide; i++ {
		due += arrivalGap(r, decidesPerSecond)
		cfg := decideA
		if r.IntN(2) == 1 {
			cfg = decideB
		}
		n := banks[cfg]
		if n == 0 {
			return nil, fmt.Errorf("no bank size for %s", cfg)
		}
		req := core.DecideRequest{
			Voltages:       make([]float64, n),
			AccumulatedDMR: 0.4 * r.Float64(),
			PeriodOfDay:    r.IntN(weather.Base.PeriodsPerDay),
			ActiveCap:      r.IntN(n),
		}
		for j := range req.Voltages {
			req.Voltages[j] = 0.5*p.VLow + r.Float64()*(p.VHigh-0.5*p.VLow)
		}
		if r.Float64() < poweredShare {
			day, period := r.IntN(weather.Base.Days), r.IntN(weather.Base.PeriodsPerDay)
			req.PrevPowers = append([]float64(nil), weather.PeriodPowers(day, period)...)
		}
		train := cfg.Train
		body, err := json.Marshal(decideBody{
			Graph: cfg.Graph, H: cfg.H, Train: &train,
			LastPeriodPowers: req.PrevPowers, Voltages: req.Voltages,
			AccumulatedDMR: req.AccumulatedDMR, PeriodOfDay: req.PeriodOfDay, ActiveCap: req.ActiveCap,
		})
		if err != nil {
			return nil, err
		}
		out = append(out, request{ID: fmt.Sprintf("d%05d", i), Due: due, Body: body, Config: cfg, Decide: req})
	}

	due = 0
	for i := 0; i < nRun; i++ {
		due += arrivalGap(r, runsPerSecond)
		train := decideB.Train
		spec := fleet.FileSpec{
			Defaults: fleet.RunSpec{
				Graph: decideB.Graph, H: decideB.H, Train: &train,
				Trace: fleet.TraceSpec{Kind: "gen", Days: 2, Seed: 1 + r.Uint64N(1<<31), DayOfYear: 1 + r.IntN(365)},
			},
			Runs: []fleet.RunSpec{{Scheduler: "inter"}, {Scheduler: "intra"}, {Scheduler: "proposed"}},
		}
		body, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		out = append(out, request{ID: fmt.Sprintf("r%05d", i), Due: due, Run: true, Body: body, Spec: spec})
	}
	sortByDue(out)
	return out, nil
}

// arrivalGap draws one exponential inter-arrival gap of a Poisson stream.
func arrivalGap(r *rand.Rand, perSecond float64) time.Duration {
	return time.Duration(-math.Log(1-r.Float64()) / perSecond * float64(time.Second))
}

// sortByDue orders the schedule by due time, ties by id.
func sortByDue(rs []request) {
	sort.Slice(rs, func(a, b int) bool {
		if rs[a].Due != rs[b].Due {
			return rs[a].Due < rs[b].Due
		}
		return rs[a].ID < rs[b].ID
	})
}
