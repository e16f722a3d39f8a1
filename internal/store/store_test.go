package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"vdnn/internal/core"
	"vdnn/internal/dnn"
	"vdnn/internal/gpu"
	"vdnn/internal/memalloc"
	"vdnn/internal/networks"
	"vdnn/internal/sim"
)

func testResult(i int) *core.Result {
	return &core.Result{
		Network:    "alexnet",
		Batch:      32,
		Policy:     core.Policy(i % 3),
		PolicyName: "vdnn-all",
		Trainable:  true,
		IterTime:   sim.Time(1000 + i),
		MaxUsage:   int64(i+1) << 20,
		PeakByKind: map[memalloc.Kind]int64{
			memalloc.KindFeatureMap: int64(i+1) << 19,
		},
		Layers: []core.LayerStats{
			{Name: "conv1", FwdTime: 7, BwdTime: 11},
		},
	}
}

// saveN saves n distinct configs into s and returns their keys in save order.
func saveN(t *testing.T, s *Store, n int) []string {
	t.Helper()
	net := networks.AlexNet(32)
	keys := make([]string, 0, n)
	for i := 0; i < n; i++ {
		cfg := core.Config{Spec: gpu.TitanX(), Policy: core.VDNNAll, Iterations: 2 + i}
		key, ok := Key(net, cfg)
		if !ok {
			t.Fatalf("Key not ok for plain config %d", i)
		}
		s.Save(net, cfg, testResult(i))
		keys = append(keys, key)
	}
	return keys
}

func TestKeyProperties(t *testing.T) {
	net := networks.AlexNet(32)
	base := core.Config{Spec: gpu.TitanX(), Policy: core.VDNNAll}

	k1, ok := Key(net, base)
	if !ok || len(k1) != 64 {
		t.Fatalf("Key = %q, %v; want 64-hex, true", k1, ok)
	}
	// Normalization: a config differing only in defaulted fields keys the
	// same record.
	explicit := base
	explicit.Iterations = 2
	explicit.Devices = 1
	if k2, _ := Key(net, explicit); k2 != k1 {
		t.Errorf("normalized config keyed differently: %s != %s", k2, k1)
	}
	// A semantically different config must key differently.
	oracle := base
	oracle.Oracle = true
	if k3, _ := Key(net, oracle); k3 == k1 {
		t.Errorf("oracle config collided with base key")
	}
	// Structural identity, not pointer identity: a rebuilt network keys the
	// same.
	if k4, _ := Key(networks.AlexNet(32), base); k4 != k1 {
		t.Errorf("rebuilt network keyed differently: %s != %s", k4, k1)
	}
	// A different batch is a different network fingerprint.
	if k5, _ := Key(networks.AlexNet(64), base); k5 == k1 {
		t.Errorf("batch-64 network collided with batch-32 key")
	}
	// The input buffer is part of the structure: same-named networks whose
	// layers print alike but read a different input key differently.
	inputNet := func(c, hw int) *dnn.Network {
		b := dnn.NewBuilder("tiny", 8, net.DType)
		x := b.Input(c, hw, hw)
		x = b.Conv(x, "conv1", 16, 11, 4, 2)
		b.SoftmaxLoss(b.FC(x, "fc", 10), "loss")
		return b.MustFinalize()
	}
	k6, _ := Key(inputNet(3, 224), base)
	for _, other := range []*dnn.Network{inputNet(1, 224), inputNet(3, 225)} {
		if k, _ := Key(other, base); k == k6 {
			t.Errorf("input %v collided with input 8x3x224x224", other.Input.Shape)
		}
	}
	// Custom policies are never addressable persistently.
	custom := base
	custom.Custom = fakePolicy{}
	if _, ok := Key(net, custom); ok {
		t.Errorf("Key ok for custom policy; custom policies must not persist")
	}
}

// TestKeyGolden pins one store key. A key that drifts orphans every record
// an existing store directory holds: a warm store would read cold.
func TestKeyGolden(t *testing.T) {
	const want = "bb83be19ef5f84f996459cde4bd0eb9ec0277bc76cc53e7aa882e78d9b556383"
	key, ok := Key(networks.GoogLeNet(64), core.Config{Spec: gpu.TitanX(), Policy: core.VDNNAll})
	if !ok || key != want {
		t.Errorf("Key = %q, %v; want %q", key, ok, want)
	}
}

type fakePolicy struct{}

func (fakePolicy) Name() string { return "fake" }
func (fakePolicy) OffloadInput(*dnn.Network, *dnn.Tensor, *dnn.Layer) bool {
	return false
}
func (fakePolicy) Algorithms(_ *dnn.Network, _ *dnn.Layer, m core.AlgoMode) core.AlgoMode {
	return m
}
func (fakePolicy) PrefetchSchedule(_ *dnn.Network, m core.PrefetchMode) core.PrefetchMode {
	return m
}

func TestSaveLoadAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	net := networks.AlexNet(32)
	cfg := core.Config{Spec: gpu.TitanX(), Policy: core.VDNNAll}
	want := testResult(0)
	s1.Save(net, cfg, want)
	if st := s1.Stats(); st.Writes != 1 || st.WriteErrors != 0 || st.Records != 1 {
		t.Fatalf("after save: %+v", st)
	}
	got, ok := s1.Load(net, cfg)
	if !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("same-process Load = %+v, %v", got, ok)
	}

	// A brand-new store over the same directory — the restarted daemon —
	// serves the identical result.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st := s2.Stats(); st.Records != 1 || st.CorruptSkipped != 0 {
		t.Fatalf("after reopen: %+v", st)
	}
	got, ok = s2.Load(net, cfg)
	if !ok {
		t.Fatalf("Load after reopen missed")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round-trip result differs:\n got %+v\nwant %+v", got, want)
	}
	if st := s2.Stats(); st.Hits != 1 || st.Misses != 0 {
		t.Errorf("reopen stats after hit: %+v", st)
	}
}

func TestCorruptRecordsSkippedNotFatal(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	keys := saveN(t, s, 3)

	// Truncate the last record mid-payload (a crash during a non-atomic
	// copy of the store, or disk damage).
	last := filepath.Join(dir, keys[2]+".rec")
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(last, fi.Size()-10); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	// And drop in a file that is not a record at all.
	garbage := filepath.Join(dir, strings.Repeat("ab", 32)+".rec")
	if err := os.WriteFile(garbage, []byte("not a record"), 0o644); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	// Leftover temp files from a crashed writer are not records.
	if err := os.WriteFile(filepath.Join(dir, ".tmp-12345"), []byte("partial"), 0o644); err != nil {
		t.Fatalf("write temp: %v", err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen over corrupt store must not fail: %v", err)
	}
	st := s2.Stats()
	if st.Records != 2 || st.CorruptSkipped != 2 {
		t.Fatalf("reopen stats = %+v, want 2 valid / 2 skipped", st)
	}
	// Valid records still served.
	for i, key := range keys[:2] {
		if res, ok := s2.Get(key); !ok || res.IterTime != sim.Time(1000+i) {
			t.Errorf("valid record %d not served after corruption elsewhere", i)
		}
	}
	// The truncated record reads as a miss, never an error or wrong data.
	if _, ok := s2.Get(keys[2]); ok {
		t.Errorf("truncated record served")
	}
}

func TestBitFlipDetected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := saveN(t, s, 1)[0]
	path := filepath.Join(dir, key+".rec")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	b[len(b)-5] ^= 0x40 // flip a bit inside the gob payload
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatalf("bit-flipped record served; CRC must catch it")
	}
	if st := s.Stats(); st.CorruptSkipped == 0 {
		t.Errorf("corruption not counted: %+v", st)
	}
}

func TestMisfiledRecordRejected(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	keys := saveN(t, s, 2)
	// Copy record 0's file over record 1's name: intact envelope, wrong key.
	b, err := os.ReadFile(filepath.Join(dir, keys[0]+".rec"))
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, keys[1]+".rec"), b, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	if _, ok := s.Get(keys[1]); ok {
		t.Fatalf("record served under the wrong key")
	}
}

func TestWrongVersionSkipped(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir)
	key := saveN(t, s, 1)[0]
	rec, err := s.readRecord(filepath.Join(dir, key+".rec"), key)
	if err != nil {
		t.Fatalf("readRecord: %v", err)
	}
	rec.Version = recordVersion + 1
	if err := s.put(key, *rec); err != nil {
		t.Fatalf("put: %v", err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatalf("future-version record served")
	}
}

func TestConcurrentSaveLoad(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	net := networks.AlexNet(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				cfg := core.Config{Spec: gpu.TitanX(), Policy: core.VDNNAll, Iterations: 2 + i%4}
				s.Save(net, cfg, testResult(i%4))
				if res, ok := s.Load(net, cfg); ok && res == nil {
					t.Error("hit with nil result")
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Stats(); st.WriteErrors != 0 {
		t.Errorf("concurrent writes errored: %+v", st)
	}
	// Everything on disk is complete and valid.
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if st := s2.Stats(); st.Records != 4 || st.CorruptSkipped != 0 {
		t.Errorf("after concurrent writes: %+v, want 4 clean records", st)
	}
}

// TestUndecodablePayloadCountedThenMissed pins the split between Open-time
// and read-time validation: a record whose envelope holds (magic, length,
// CRC32) but whose payload does not decode counts as a record at Open, and
// Get reads it as a miss and counts it as corrupt.
func TestUndecodablePayloadCountedThenMissed(t *testing.T) {
	dir := t.TempDir()
	payload := []byte("an envelope-valid payload that is not a gob record")
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[len(magic)+4:], crc32.ChecksumIEEE(payload))
	key := strings.Repeat("cd", 32)
	if err := os.WriteFile(filepath.Join(dir, key+".rec"), append(hdr, payload...), 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st := s.Stats(); st.Records != 1 || st.CorruptSkipped != 0 {
		t.Fatalf("after Open: %+v, want 1 record / 0 skipped", st)
	}
	if res, ok := s.Get(key); ok || res != nil {
		t.Fatalf("undecodable record served: %+v, %v", res, ok)
	}
	if st := s.Stats(); st.Misses != 1 || st.CorruptSkipped != 1 {
		t.Errorf("after Get: %+v, want 1 miss / 1 corrupt", st)
	}
}
