package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
)

// config is one of the paper's six conventional training configurations
// (Figures 11, 12 and 14).
type config struct {
	Network string
	Batch   int
}

var paperConfigs = []config{
	{"alexnet", 128}, {"overfeat", 128}, {"googlenet", 128},
	{"vgg16", 64}, {"vgg16", 128}, {"vgg16", 256},
}

// policyAlgo is one memory-manager setting of the paper's figures.
type policyAlgo struct{ Policy, Algo string }

var paperPolicies = []policyAlgo{
	{"base", "m"}, {"base", "p"}, {"vdnn-all", "m"}, {"vdnn-all", "p"},
	{"vdnn-conv", "m"}, {"vdnn-conv", "p"}, {"vdnn-dyn", ""},
}

// simBody mirrors the /v1/simulate fields the generator varies.
type simBody struct {
	Network  string  `json:"network"`
	Batch    int     `json:"batch"`
	Policy   string  `json:"policy,omitempty"`
	Algo     string  `json:"algo,omitempty"`
	GPUMemGB float64 `json:"gpu_mem_gb,omitempty"`
	Codec    string  `json:"codec,omitempty"`
	Devices  int     `json:"devices,omitempty"`
	Stages   int     `json:"stages,omitempty"`
}

// planBody mirrors the /v1/plan fields the generator varies.
type planBody struct {
	Network    string  `json:"network"`
	Batch      int     `json:"batch"`
	MemCapGB   float64 `json:"mem_cap_gb,omitempty"`
	MaxDevices int     `json:"max_devices,omitempty"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func simReq(b simBody) Request {
	return Request{Kind: "simulate", Path: "/v1/simulate", Body: mustJSON(b)}
}

func planReq(b planBody) Request {
	return Request{Kind: "plan", Path: "/v1/plan", Body: mustJSON(b)}
}

// warmPlanEvery makes every warmPlanEvery-th warm request a /v1/plan.
const warmPlanEvery = 20

// WarmKeys is the warm workload's key set: every paper configuration under
// every policy at the device's own capacity (42 simulations), plus one plan
// per configuration. Set-up requests each key once; the measured stream
// repeats them, so every measured request is a cache hit.
type WarmKeys struct {
	Sims  []Request
	Plans []Request
	order []int // seeded draw of key indices, one per stream position
}

func NewWarmKeys(seed uint64, n int) *WarmKeys {
	k := &WarmKeys{}
	for _, c := range paperConfigs {
		for _, p := range paperPolicies {
			k.Sims = append(k.Sims, simReq(simBody{Network: c.Network, Batch: c.Batch, Policy: p.Policy, Algo: p.Algo}))
		}
		k.Plans = append(k.Plans, planReq(planBody{Network: c.Network, Batch: c.Batch, MaxDevices: 4}))
	}
	r := rand.New(rand.NewPCG(seed, 0x5741524d))
	k.order = make([]int, n)
	for i := range k.order {
		if i%warmPlanEvery == warmPlanEvery-1 {
			k.order[i] = -1 - r.IntN(len(k.Plans))
		} else {
			k.order[i] = r.IntN(len(k.Sims))
		}
	}
	return k
}

// At is the i-th request of the open-loop stream.
func (k *WarmKeys) At(i int) Request {
	j := k.order[i%len(k.order)]
	if j < 0 {
		return k.Plans[-1-j]
	}
	return k.Sims[j]
}

// SimAt is the i-th request of the closed-loop (simulate-only) stream.
func (k *WarmKeys) SimAt(i int) Request { return k.Sims[i%len(k.Sims)] }

// coldPlanEvery makes every coldPlanEvery-th cold request a /v1/plan.
const coldPlanEvery = 10

// coldClass is one stratum of the cold stream: a configuration and policy;
// the per-request device capacity is drawn fresh, so no two requests share a
// cache key while classes that differ only in capacity share a structure.
type coldClass struct {
	config
	policyAlgo
	Codec   string
	Devices int
	Stages  int
}

func coldClasses() []coldClass {
	var cs []coldClass
	for _, c := range paperConfigs {
		for _, p := range paperPolicies {
			cs = append(cs, coldClass{config: c, policyAlgo: p})
		}
	}
	// The occasional compressed, data-parallel and pipelined request.
	cs = append(cs,
		coldClass{config: config{"vgg16", 128}, policyAlgo: policyAlgo{"vdnn-all", "m"}, Codec: "zvc"},
		coldClass{config: config{"googlenet", 128}, policyAlgo: policyAlgo{"vdnn-conv", "p"}, Codec: "rle"},
		coldClass{config: config{"alexnet", 128}, policyAlgo: policyAlgo{"base", "p"}, Devices: 2},
		coldClass{config: config{"vgg16", 64}, policyAlgo: policyAlgo{"vdnn-all", "p"}, Devices: 4},
		coldClass{config: config{"overfeat", 128}, policyAlgo: policyAlgo{"vdnn-conv", "p"}, Stages: 2},
		coldClass{config: config{"vgg16", 128}, policyAlgo: policyAlgo{"vdnn-all", "p"}, Stages: 2},
	)
	return cs
}

// ColdKeys generates the cold workload's stream: distinct keys, stratified
// so each run sees every class in the same proportion (the seed shuffles the
// order within each cycle of classes and draws the capacities).
type ColdKeys struct {
	seed    uint64
	classes []coldClass
}

func NewColdKeys(seed uint64) *ColdKeys {
	return &ColdKeys{seed: seed, classes: coldClasses()}
}

// Device capacities span [4, 12) GiB in capStrata equal strata. Each class
// takes one capacity per cycle, and every capStrata consecutive cycles visit
// every stratum once in a seeded order, so each seed sees the same spread of
// capacities (and of trainable and untrainable points).
const capStrata = 8

// capacity returns a capacity in the given stratum on an 8 KiB grid, unique
// to index j < 1<<17: an odd multiplier scrambles j bijectively within the
// stratum and the seed picks the offset.
func (k *ColdKeys) capacity(stratum, j int) float64 {
	const perStratum = 1 << 17
	x := (uint64(j)*0x9E3779B1 + k.seed*0x2545F491) % perStratum
	return 4 + 8*float64(uint64(stratum)*perStratum+x)/(capStrata*perStratum)
}

// stratum is the capacity stratum of a class's cycle-th occurrence.
func (k *ColdKeys) stratum(cycle int, salt uint64) int {
	block := uint64(cycle / capStrata)
	return rand.New(rand.NewPCG(k.seed, block<<2|salt)).Perm(capStrata)[cycle%capStrata]
}

// sim is the s-th simulation of a stream whose capacities are indexed from
// capBase: classes cycle, each cycle in its own seeded order.
func (k *ColdKeys) sim(s, capBase int) Request {
	cycle, pos := s/len(k.classes), s%len(k.classes)
	perm := rand.New(rand.NewPCG(k.seed, uint64(cycle)<<2)).Perm(len(k.classes))
	c := k.classes[perm[pos]]
	return simReq(simBody{
		Network: c.Network, Batch: c.Batch, Policy: c.Policy, Algo: c.Algo,
		GPUMemGB: k.capacity(k.stratum(cycle, 2), capBase+s),
		Codec:    c.Codec, Devices: c.Devices, Stages: c.Stages,
	})
}

// At is the i-th request of the open-loop stream: every coldPlanEvery-th
// position is a single-device plan (configurations cycling in seeded
// order), the rest are simulations. Single-device plans keep the planner's
// share of the stream near the simulations' cost; a 4-device search costs
// about 30 times more.
func (k *ColdKeys) At(i int) Request {
	if i%coldPlanEvery == coldPlanEvery-1 {
		p := i / coldPlanEvery
		cycle, pos := p/len(paperConfigs), p%len(paperConfigs)
		perm := rand.New(rand.NewPCG(k.seed, uint64(cycle)<<2|1)).Perm(len(paperConfigs))
		c := paperConfigs[perm[pos]]
		return planReq(planBody{Network: c.Network, Batch: c.Batch,
			MemCapGB: k.capacity(k.stratum(cycle, 3), 1<<15+p), MaxDevices: 1})
	}
	return k.sim(i-i/coldPlanEvery, 0)
}

// SimAt is the i-th request of the closed-loop (simulate-only) stream; its
// capacities are indexed past the open loop's, so its keys are distinct
// from those too.
func (k *ColdKeys) SimAt(i int) Request { return k.sim(i, 1<<16) }

func (r Request) String() string { return fmt.Sprintf("%s %s", r.Path, r.Body) }
