// Package store is a content-addressed, file-backed persistent cache of
// simulation results. It extends the in-process result cache
// (internal/sweep) across restarts and across processes. Both key on the
// same pair — the network's structural identity and the normalized Config —
// so a request the in-memory cache would serve addresses the same record on
// disk, in any process.
//
// Layout and durability model:
//
//   - One record per file, DIR/<sha256-hex>.rec, written to a temp file in
//     the same directory and renamed into place. Rename is atomic on POSIX
//     filesystems, so concurrent replicas sharing DIR never observe a
//     half-written record — the worst race is both simulating the same
//     config once and one rename winning, which is correct (results are
//     deterministic functions of the key).
//   - Each record carries a fixed envelope — magic, payload length, CRC32 —
//     ahead of a versioned gob payload. Open checks only the envelopes: it
//     counts every record whose length and checksum hold and skips (never
//     fails on) anything truncated, corrupt, or from a different envelope
//     version. Get decodes the payload once, when it is read, and checks the
//     envelope again plus the payload's version, key and result; a record
//     failing there reads as a miss. A crashed writer or a bad disk costs
//     one record, not the store.
//
// The store persists only results that are pure functions of the key:
// configurations carrying a Custom policy are never written (a different
// binary could register different decisions under the same policy name),
// and the sweep engine additionally skips its oracle structure probes,
// which carry allocator state that is not meaningful across processes.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"crypto/sha256"

	"vdnn/internal/core"
	"vdnn/internal/dnn"
)

const (
	// magic identifies a vDNN store record, version baked into the string:
	// bumping the on-disk envelope means a new magic, and old files are
	// skipped as corrupt rather than misread.
	magic = "vDNNsto2"

	// recordVersion is the payload schema version inside the envelope.
	recordVersion = 1

	// keyDomain prefixes every key hash so store keys can never collide
	// with any other sha256 use, and bumping it invalidates all keys.
	keyDomain = "vdnn-store-key-v2\n"

	// maxPayload bounds a record's gob payload; anything claiming more is
	// corrupt by definition (a figures-suite record is tens of KB, and a
	// full CaptureSchedule result stays far below the bound).
	maxPayload = 64 << 20

	headerSize = len(magic) + 4 + 4 // magic + payload length + CRC32
)

// record is the versioned gob payload of one store file. Each payload is
// encoded by its own gob.Encoder, so it carries its type descriptions and
// decodes on its own.
type record struct {
	Version int
	Key     string
	Result  *core.Result
}

// Stats is a point-in-time snapshot of store counters.
type Stats struct {
	// Records is the number of records with a valid envelope: counted at
	// Open, incremented by local writes (a second replica's writes are not
	// observed until reopen). A record whose payload then fails to decode
	// is counted here and reads as a miss.
	Records int64 `json:"records"`
	// Hits and Misses count read-through lookups.
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	// Writes counts successful write-throughs; WriteErrors failed ones
	// (write failure is logged, never propagated — the result is still
	// served from memory).
	Writes      int64 `json:"writes"`
	WriteErrors int64 `json:"write_errors"`
	// CorruptSkipped counts records skipped for failing validation: the
	// envelope at Open, the envelope and payload during reads.
	CorruptSkipped int64 `json:"corrupt_skipped"`
}

// Store is a persistent result store rooted at one directory. All methods
// are safe for concurrent use, including by multiple processes sharing the
// directory.
type Store struct {
	dir string
	log *slog.Logger

	records     atomic.Int64
	hits        atomic.Int64
	misses      atomic.Int64
	writes      atomic.Int64
	writeErrors atomic.Int64
	corrupt     atomic.Int64
}

// Option configures Open.
type Option func(*Store)

// WithLogger routes the store's skip/error logs to l (default: discard).
func WithLogger(l *slog.Logger) Option {
	return func(s *Store) {
		if l != nil {
			s.log = l
		}
	}
}

// Open opens (creating if needed) the store rooted at dir and checks the
// envelope of every record in it. Records with an invalid envelope —
// truncated, bad checksum, another envelope version — are counted, logged
// and skipped; they are never fatal. Payloads are decoded only by Get, which
// never serves an invalid one.
func Open(dir string, opts ...Option) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, log: slog.New(slog.DiscardHandler)}
	for _, o := range opts {
		o(s)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".rec") {
			continue
		}
		if _, err := readPayload(filepath.Join(dir, e.Name())); err != nil {
			s.corrupt.Add(1)
			s.log.Warn("store: skipping invalid record", "file", e.Name(), "err", err)
			continue
		}
		s.records.Add(1)
	}
	s.log.Info("store: opened", "dir", dir,
		"records", s.records.Load(), "skipped", s.corrupt.Load())
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Records:        s.records.Load(),
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Writes:         s.writes.Load(),
		WriteErrors:    s.writeErrors.Load(),
		CorruptSkipped: s.corrupt.Load(),
	}
}

// --- keys -------------------------------------------------------------------

// Key returns the store key for simulating net under cfg, or ok=false if
// the configuration cannot be addressed persistently (custom policies: a
// policy object's decisions are not recoverable from its name by another
// process). The key hashes the network's fingerprint (dnn.Network.Identity)
// and the normalized Config.
func Key(net *dnn.Network, cfg core.Config) (string, bool) {
	if cfg.Custom != nil {
		return "", false
	}
	cfgJSON, err := json.Marshal(cfg.WithDefaults())
	if err != nil {
		return "", false
	}
	h := sha256.New()
	io.WriteString(h, keyDomain)
	fp, _ := net.Identity()
	io.WriteString(h, fp)
	h.Write([]byte{0})
	h.Write(cfgJSON)
	return hex.EncodeToString(h.Sum(nil)), true
}

// --- read path --------------------------------------------------------------

// Load is the sweep.ResultStore read-through: it returns the stored result
// for (net, cfg) if a valid record exists.
func (s *Store) Load(net *dnn.Network, cfg core.Config) (*core.Result, bool) {
	key, ok := Key(net, cfg)
	if !ok {
		return nil, false
	}
	return s.Get(key)
}

// Get returns the result stored under key, or ok=false on a miss. A corrupt
// record reads as a miss (counted and logged), so a replica can always fall
// back to simulating.
func (s *Store) Get(key string) (*core.Result, bool) {
	rec, err := s.readRecord(filepath.Join(s.dir, key+".rec"), key)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			s.corrupt.Add(1)
			s.log.Warn("store: skipping invalid record", "key", key, "err", err)
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return rec.Result, true
}

// readRecord reads one record file, checks its envelope, decodes its
// payload and validates the result. wantKey guards against renamed/copied
// files serving the wrong result.
func (s *Store) readRecord(path, wantKey string) (*record, error) {
	payload, err := readPayload(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&rec); err != nil {
		return nil, fmt.Errorf("payload: %w", err)
	}
	if rec.Version != recordVersion {
		return nil, fmt.Errorf("record version %d, want %d", rec.Version, recordVersion)
	}
	if rec.Key != wantKey {
		return nil, fmt.Errorf("key mismatch: record %.16s... under file %.16s...", rec.Key, wantKey)
	}
	if rec.Result == nil {
		return nil, errors.New("record without result")
	}
	return &rec, nil
}

// readPayload reads one record file and returns its payload once the
// envelope holds: magic, a plausible length, the full payload and its
// CRC32.
func readPayload(path string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	hdr := make([]byte, headerSize)
	if _, err := io.ReadFull(f, hdr); err != nil {
		return nil, fmt.Errorf("short header: %w", err)
	}
	if string(hdr[:len(magic)]) != magic {
		return nil, fmt.Errorf("bad magic %q", hdr[:len(magic)])
	}
	n := binary.LittleEndian.Uint32(hdr[len(magic):])
	sum := binary.LittleEndian.Uint32(hdr[len(magic)+4:])
	if n == 0 || n > maxPayload {
		return nil, fmt.Errorf("implausible payload length %d", n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(f, payload); err != nil {
		return nil, fmt.Errorf("truncated payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("checksum mismatch: %08x != %08x", got, sum)
	}
	return payload, nil
}

// --- write path -------------------------------------------------------------

// Save is the sweep.ResultStore write-through: it persists the result of
// simulating (net, cfg). Write failures are logged and counted, never
// returned — persistence is strictly an optimization.
func (s *Store) Save(net *dnn.Network, cfg core.Config, res *core.Result) {
	key, ok := Key(net, cfg)
	if !ok || res == nil {
		return
	}
	if err := s.put(key, record{Version: recordVersion, Key: key, Result: res}); err != nil {
		s.writeErrors.Add(1)
		s.log.Warn("store: write failed", "key", key, "err", err)
	}
}

// put atomically writes rec under key: temp file in the store directory,
// then rename. Concurrent writers (other goroutines or other processes) are
// safe; last rename wins with an identical, complete record.
func (s *Store) put(key string, rec record) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(rec); err != nil {
		return err
	}
	payload := buf.Bytes()
	hdr := make([]byte, headerSize)
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[len(magic):], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[len(magic)+4:], crc32.ChecksumIEEE(payload))

	f, err := os.CreateTemp(s.dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(hdr); err == nil {
		_, err = f.Write(payload)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	dst := filepath.Join(s.dir, key+".rec")
	_, statErr := os.Stat(dst)
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return err
	}
	s.writes.Add(1)
	if errors.Is(statErr, fs.ErrNotExist) {
		s.records.Add(1)
	}
	return nil
}
