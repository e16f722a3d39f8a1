package main

import (
	"bytes"
	"encoding/json"
	"testing"
)

// Every cold request is a distinct key: open-loop and closed-loop streams
// never repeat a body, and the same seed yields the same stream.
func TestColdKeysDistinctAndSeeded(t *testing.T) {
	k := NewColdKeys(7)
	seen := map[string]int{}
	plans := 0
	for i := 0; i < 6000; i++ {
		r := k.At(i)
		if r.Kind == "plan" {
			plans++
		}
		if j, dup := seen[string(r.Body)]; dup {
			t.Fatalf("open-loop requests %d and %d share a key: %s", j, i, r.Body)
		}
		seen[string(r.Body)] = i
	}
	if plans != 600 {
		t.Fatalf("%d plans in 6000 requests, want 1 in %d", plans, coldPlanEvery)
	}
	for i := 0; i < 6000; i++ {
		r := k.SimAt(i)
		if r.Kind != "simulate" {
			t.Fatalf("closed-loop request %d is a %s", i, r.Kind)
		}
		if _, dup := seen[string(r.Body)]; dup {
			t.Fatalf("closed-loop request %d repeats a key: %s", i, r.Body)
		}
		seen[string(r.Body)] = -i
	}
	again := NewColdKeys(7)
	other := NewColdKeys(8)
	differs := false
	for i := 0; i < 100; i++ {
		if !bytes.Equal(k.At(i).Body, again.At(i).Body) {
			t.Fatalf("seed 7 request %d differs between two generators", i)
		}
		differs = differs || !bytes.Equal(k.At(i).Body, other.At(i).Body)
	}
	if !differs {
		t.Fatal("seeds 7 and 8 generate the same stream")
	}
}

// Each cycle of the cold stream holds every class once, and every
// capStrata cycles give each class one capacity in each 1 GiB stratum,
// whatever the seed.
func TestColdKeysStratified(t *testing.T) {
	classes := len(coldClasses())
	for _, seed := range []uint64{1, 2, 3} {
		k := NewColdKeys(seed)
		count := map[string]int{}
		strata := map[string]map[int]bool{}
		for s := 0; s < capStrata*classes; s++ {
			var b simBody
			mustUnmarshal(t, k.sim(s, 0).Body, &b)
			stratum := int(b.GPUMemGB - 4)
			b.GPUMemGB = 0
			c := string(mustJSON(b))
			count[c]++
			if strata[c] == nil {
				strata[c] = map[int]bool{}
			}
			strata[c][stratum] = true
		}
		for c, s := range strata {
			if len(s) != capStrata {
				t.Fatalf("seed %d: class %s covers %d of %d capacity strata", seed, c, len(s), capStrata)
			}
		}
		if len(count) != classes {
			t.Fatalf("seed %d: %d classes in %d cycles, want %d", seed, len(count), capStrata, classes)
		}
		for c, n := range count {
			if n != capStrata {
				t.Fatalf("seed %d: class %s appears %d times in %d cycles", seed, c, n, capStrata)
			}
		}
	}
}

func TestWarmKeysCycleKnownKeys(t *testing.T) {
	k := NewWarmKeys(3, 400)
	known := map[string]bool{}
	for _, r := range append(append([]Request(nil), k.Sims...), k.Plans...) {
		known[string(r.Body)] = true
	}
	if len(k.Sims) != len(paperConfigs)*len(paperPolicies) || len(k.Plans) != len(paperConfigs) {
		t.Fatalf("%d simulations and %d plans", len(k.Sims), len(k.Plans))
	}
	plans := 0
	for i := 0; i < 400; i++ {
		r := k.At(i)
		if !known[string(r.Body)] {
			t.Fatalf("request %d is not in the set-up key set: %s", i, r.Body)
		}
		if r.Kind == "plan" {
			plans++
		}
		if k.SimAt(i).Kind != "simulate" {
			t.Fatalf("closed-loop request %d is not a simulation", i)
		}
	}
	if plans != 400/warmPlanEvery {
		t.Fatalf("%d plans in 400 requests, want 1 in %d", plans, warmPlanEvery)
	}
}

func mustUnmarshal(t *testing.T, b []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(b, v); err != nil {
		t.Fatal(err)
	}
}
