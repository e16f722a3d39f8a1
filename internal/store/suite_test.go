package store_test

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"vdnn"
	"vdnn/internal/core"
	"vdnn/internal/figures"
	"vdnn/internal/gpu"
	"vdnn/internal/store"
	"vdnn/internal/sweep"
)

// suite holds every distinct persistable job of the figures suite and its
// simulated result, computed once per test binary.
var suite struct {
	once sync.Once
	jobs []sweep.Job
	res  []*core.Result
	err  error
}

// suiteResults returns the distinct jobs of every vdnn-repro experiment that
// the store can address, with their results, in enumeration order.
func suiteResults(tb testing.TB) ([]sweep.Job, []*core.Result) {
	tb.Helper()
	suite.once.Do(func() {
		seen := map[string]bool{}
		for _, e := range figures.NewSuiteSim(gpu.TitanX(), vdnn.NewSimulator()).Experiments() {
			for _, j := range e.Jobs() {
				if k, ok := store.Key(j.Net, j.Cfg); ok && !seen[k] {
					seen[k] = true
					suite.jobs = append(suite.jobs, j)
				}
			}
		}
		suite.res, suite.err = sweep.NewEngine(0).RunAll(context.Background(), suite.jobs)
	})
	if suite.err != nil {
		tb.Fatalf("simulating the figures suite: %v", suite.err)
	}
	return suite.jobs, suite.res
}

// saveAll writes every job's result into a fresh store and returns its
// directory.
func saveAll(tb testing.TB, jobs []sweep.Job, res []*core.Result) string {
	tb.Helper()
	dir := tb.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		tb.Fatalf("Open: %v", err)
	}
	for i, j := range jobs {
		st.Save(j.Net, j.Cfg, res[i])
	}
	if s := st.Stats(); s.Writes != int64(len(jobs)) || s.WriteErrors != 0 {
		tb.Fatalf("saving %d results: %+v", len(jobs), s)
	}
	return dir
}

// TestRoundTripEveryReproJob saves the result of every distinct vdnn-repro
// job, reopens the store as a restarted process would, and requires each
// loaded result to equal the simulated one exactly.
func TestRoundTripEveryReproJob(t *testing.T) {
	jobs, res := suiteResults(t)
	st, err := store.Open(saveAll(t, jobs, res))
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if s := st.Stats(); s.Records != int64(len(jobs)) || s.CorruptSkipped != 0 {
		t.Fatalf("reopened store: %+v, want %d clean records", s, len(jobs))
	}
	for i, j := range jobs {
		got, ok := st.Load(j.Net, j.Cfg)
		if !ok {
			t.Fatalf("job %d (%s, %s): stored result missed", i, j.Net.Name, j.Cfg.Policy)
		}
		if !reflect.DeepEqual(got, res[i]) {
			t.Fatalf("job %d (%s, %s): loaded result differs from the simulated one", i, j.Net.Name, j.Cfg.Policy)
		}
	}
}

// BenchmarkStoreSave writes the figures suite's results, one op being the
// whole set.
func BenchmarkStoreSave(b *testing.B) {
	jobs, res := suiteResults(b)
	dir := b.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	for b.Loop() {
		for i, j := range jobs {
			st.Save(j.Net, j.Cfg, res[i])
		}
	}
	reportPerRecord(b, len(jobs))
	var bytes int64
	files, _ := filepath.Glob(filepath.Join(dir, "*.rec"))
	for _, f := range files {
		if fi, err := os.Stat(f); err == nil {
			bytes += fi.Size()
		}
	}
	b.ReportMetric(float64(bytes)/1024/float64(max(len(files), 1)), "KB/record")
}

// BenchmarkStoreOpen opens a store holding the figures suite's results.
func BenchmarkStoreOpen(b *testing.B) {
	jobs, res := suiteResults(b)
	dir := saveAll(b, jobs, res)
	for b.Loop() {
		st, err := store.Open(dir)
		if err != nil {
			b.Fatalf("Open: %v", err)
		}
		if n := st.Stats().Records; n != int64(len(jobs)) {
			b.Fatalf("Open counted %d records, want %d", n, len(jobs))
		}
	}
	reportPerRecord(b, len(jobs))
}

// BenchmarkStoreLoad loads every result of the figures suite back from an
// open store, one op being the whole set.
func BenchmarkStoreLoad(b *testing.B) {
	jobs, res := suiteResults(b)
	st, err := store.Open(saveAll(b, jobs, res))
	if err != nil {
		b.Fatalf("Open: %v", err)
	}
	for b.Loop() {
		for _, j := range jobs {
			if _, ok := st.Load(j.Net, j.Cfg); !ok {
				b.Fatalf("Load missed a saved result")
			}
		}
	}
	reportPerRecord(b, len(jobs))
}

func reportPerRecord(b *testing.B, records int) {
	b.ReportMetric(float64(records), "records")
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N*records), "us/record")
}
