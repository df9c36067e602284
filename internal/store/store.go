// Package store is a content-addressed on-disk cache of simulation
// artifacts in two tiers — materialized block streams and completed
// simulation results — the layers that make warm runs skip first the
// trace decode and then the simulation itself.
//
// The stream tier holds DBS1 blobs (trace.BlockStream.WriteTo), each
// named by the hex SHA-256 of its derivation: the source trace's
// identity (the SHA-256 of the file bytes, or a digest of an in-memory
// trace), the block size, the shard log, the kinds flag, and the
// stream format version (Key). The result tier holds DRS1 blobs
// (result.go) — the per-configuration statistics of one finished pass
// — each named by the hex SHA-256 over the stream key it replayed, the
// engine name, the canonical spec serialization
// (engine.Spec.CacheKey), and the result format version (ResultKey).
// In both tiers equal keys mean bit-identical content, so a hit can
// replace a decode or a simulation without any further comparison; any
// change to the inputs — or to either wire format — changes the key
// and the stale entry simply stops being found. A third, in-process
// tier (Options.MemBytes) keeps recently decoded BlockStreams live so
// repeated queries in one process skip even the DBS1 decode.
//
// The store is safe for concurrent use by multiple goroutines and, for
// reads, by multiple processes: entries are published atomically by
// writing a temp file in the same directory and renaming it into
// place, so a reader never observes a half-written blob. Concurrent
// identical materializations within one process are single-flighted —
// one caller decodes, everyone else shares the result. Corrupt entries
// (checksum mismatch, bad geometry, spec-echo mismatch) are detected
// on load, quarantined by renaming to a .bad suffix, and reported with
// a typed error so callers fall back to re-decoding or re-simulating;
// GC removes quarantined files and enforces the size cap — one
// MaxBytes budget shared by both on-disk tiers — by least-recently-
// used eviction (recency is the entry file's mtime, bumped on every
// hit).
package store

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dew/internal/trace"
)

const (
	// formatVersion is folded into every key; bump it when the DBS1
	// wire format (or the meaning of a key component) changes so old
	// entries are orphaned rather than misread.
	formatVersion = "dbs1-v1"

	entrySuffix      = ".dbs"
	quarantineSuffix = ".bad"
	tmpPrefix        = "tmp-"

	// tmpGCAge is how old a temp file must be before GC treats it as
	// abandoned: a younger one may be another process's publish in
	// flight, whose rename would fail if GC removed it.
	tmpGCAge = time.Hour
)

// ErrMiss is returned by Get when the store holds no entry for the
// key.
var ErrMiss = errors.New("store: miss")

// CorruptEntryError reports a cache entry that failed validation on
// load. The entry has already been quarantined (renamed to a .bad
// file); the caller is expected to fall back to re-decoding. It
// matches trace.ErrCorrupt via errors.Is when the underlying decode
// error does.
type CorruptEntryError struct {
	Key  string
	Path string
	Err  error
}

func (e *CorruptEntryError) Error() string {
	return fmt.Sprintf("store: corrupt entry %s (quarantined): %v", e.Key, e.Err)
}

func (e *CorruptEntryError) Unwrap() error { return e.Err }

// Options configures a Store.
type Options struct {
	// MaxBytes caps the total size of live entries — stream and result
	// blobs share the one budget; publishing past the cap evicts
	// least-recently-used entries of either kind until it holds. 0
	// means uncapped.
	MaxBytes int64
	// MemBytes enables the in-process tier: an LRU of decoded
	// BlockStreams (estimated sizes) consulted by GetOrMaterialize
	// before touching disk, so repeated queries in one process skip
	// even the DBS1 decode. 0 disables the tier.
	MemBytes int64
}

// Stats counts store traffic since Open.
type Stats struct {
	Hits         uint64 // stream entries served from disk (or a shared in-flight result)
	Misses       uint64 // stream lookups that found no entry
	Stores       uint64 // stream entries published
	ResultHits   uint64 // result entries served from disk
	ResultMisses uint64 // result lookups that found no entry
	ResultStores uint64 // result entries published
	MemHits      uint64 // streams served from the in-process tier (no disk read, no decode)
	Evictions    uint64 // entries removed to satisfy the size cap
	Quarantines  uint64 // corrupt entries renamed aside
}

// DiskStats describes what is on disk right now. Entries and Bytes are
// totals across both kinds.
type DiskStats struct {
	Entries          int   // live entries (streams + results)
	Bytes            int64 // total size of live entries
	StreamEntries    int   // live DBS1 stream entries
	StreamBytes      int64
	ResultEntries    int // live DRS1 result entries
	ResultBytes      int64
	Quarantined      int // corrupt entries awaiting gc
	QuarantinedBytes int64
	Temp             int // abandoned temp files awaiting gc
}

// Store is one cache directory. The zero value is not usable; call
// Open.
type Store struct {
	dir      string
	maxBytes int64
	mem      *memLRU // nil when the in-process tier is disabled

	hits, misses, stores, evictions, quarantines    atomic.Uint64
	resultHits, resultMisses, resultStores, memHits atomic.Uint64

	mu     sync.Mutex
	flight map[string]*flight
}

type flight struct {
	done chan struct{}
	bs   *trace.BlockStream
	err  error
}

// Open creates the directory if needed and returns a Store over it.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, maxBytes: opt.MaxBytes, flight: map[string]*flight{}}
	if opt.MemBytes > 0 {
		s.mem = newMemLRU(opt.MemBytes)
	}
	return s, nil
}

// Dir returns the cache directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the traffic counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Stores:       s.stores.Load(),
		ResultHits:   s.resultHits.Load(),
		ResultMisses: s.resultMisses.Load(),
		ResultStores: s.resultStores.Load(),
		MemHits:      s.memHits.Load(),
		Evictions:    s.evictions.Load(),
		Quarantines:  s.quarantines.Load(),
	}
}

// MemStats reports the in-process stream tier: live decoded streams
// and their estimated size. Both are zero when the tier is disabled.
func (s *Store) MemStats() (entries int, bytes int64) {
	if s.mem == nil {
		return 0, 0
	}
	return s.mem.stats()
}

// FileID returns the content identity of a trace file: "file:" plus
// the hex SHA-256 of its bytes (as stored — a gzipped trace hashes the
// gzip bytes). Two paths holding identical bytes share one identity,
// so renamed or copied traces still hit.
func FileID(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("store: hashing %s: %w", path, err)
	}
	return "file:" + hex.EncodeToString(h.Sum(nil)), nil
}

// AppID returns the identity of a generated workload trace. The
// generators are deterministic in (name, seed, count), so the triple
// identifies the content; a change to a generator must be treated as a
// format change (bump formatVersion) or the cache will serve streams
// of the old generator.
func AppID(name string, seed uint64, count uint64) string {
	return fmt.Sprintf("app:%s:%d:%d", name, seed, count)
}

// TraceID digests an in-memory trace's accesses (address and kind):
// the exact content identity, immune to generator drift. Costs one
// pass over the trace — cheap next to materialization.
func TraceID(tr trace.Trace) string {
	h := sha256.New()
	var rec [9]byte
	for _, a := range tr {
		binary.LittleEndian.PutUint64(rec[:8], a.Addr)
		rec[8] = byte(a.Kind)
		h.Write(rec[:])
	}
	return "trace:" + hex.EncodeToString(h.Sum(nil))
}

// Key derives the entry key for a materialized stream: the hex SHA-256
// over the source identity and every parameter that shaped the bytes.
// shardLog is the shard level the stream was built under (the stored
// artifact is always the unsharded finest-rung source stream, and
// partitioning is derived in O(runs), so callers normally pass 0).
func Key(sourceID string, blockSize, shardLog int, kinds bool) string {
	h := sha256.New()
	io.WriteString(h, formatVersion)
	h.Write([]byte{0})
	io.WriteString(h, sourceID)
	h.Write([]byte{0})
	io.WriteString(h, strconv.Itoa(blockSize))
	h.Write([]byte{0})
	io.WriteString(h, strconv.Itoa(shardLog))
	h.Write([]byte{0})
	if kinds {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func validKey(key string) error {
	if len(key) != sha256.Size*2 {
		return fmt.Errorf("store: bad key %q", key)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: bad key %q", key)
		}
	}
	return nil
}

func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, key+entrySuffix)
}

// quarantine renames a corrupt entry aside so the next lookup misses
// instead of re-reading it; gc reclaims the space.
func (s *Store) quarantine(path string) {
	if os.Rename(path, path+quarantineSuffix) != nil {
		os.Remove(path)
	}
	s.quarantines.Add(1)
}

// Get loads the entry for key. A missing entry returns ErrMiss; an
// entry that fails validation is quarantined and returns a
// CorruptEntryError. On a hit the entry's mtime is bumped (LRU
// recency).
func (s *Store) Get(ctx context.Context, key string) (*trace.BlockStream, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := validKey(key); err != nil {
		return nil, err
	}
	path := s.entryPath(key)
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			s.misses.Add(1)
			return nil, ErrMiss
		}
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	bs := &trace.BlockStream{}
	if _, err := bs.ReadFrom(f); err != nil {
		s.quarantine(path)
		return nil, &CorruptEntryError{Key: key, Path: path, Err: err}
	}
	// The blob must be the whole file: trailing bytes mean the entry
	// is not what Put wrote.
	var scratch [1]byte
	if n, _ := f.Read(scratch[:]); n != 0 {
		s.quarantine(path)
		return nil, &CorruptEntryError{Key: key, Path: path, Err: errors.New("trailing bytes after blob")}
	}
	now := time.Now()
	os.Chtimes(path, now, now) // best effort: recency only
	s.hits.Add(1)
	return bs, nil
}

// Put publishes a stream under key: the blob is written to a temp file
// in the cache directory, synced, and renamed into place, so
// concurrent readers (including other processes) see either the old
// state or the complete entry. Publishing past the size cap evicts
// least-recently-used entries.
func (s *Store) Put(ctx context.Context, key string, bs *trace.BlockStream) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if err := validKey(key); err != nil {
		return err
	}
	f, err := os.CreateTemp(s.dir, tmpPrefix)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, err = bs.WriteTo(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, s.entryPath(key))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing %s: %w", key, err)
	}
	s.stores.Add(1)
	if s.maxBytes > 0 {
		s.enforceCap(key + entrySuffix)
	}
	return nil
}

// liveSuffix classifies a directory entry name: the entry suffix of a
// live blob (stream or result), or "" for anything else.
func liveSuffix(name string) string {
	switch filepath.Ext(name) {
	case entrySuffix:
		return entrySuffix
	case resultSuffix:
		return resultSuffix
	}
	return ""
}

// enforceCap removes least-recently-used entries — stream and result
// blobs under the one budget — until the live total fits the cap. The
// just-published entry (keep is its file name) is never evicted (a
// single oversized entry stays until something newer displaces it).
func (s *Store) enforceCap(keep string) {
	type ent struct {
		path  string
		size  int64
		mtime time.Time
	}
	var (
		entries []ent
		total   int64
	)
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return
	}
	keepPath := filepath.Join(s.dir, keep)
	for _, de := range dirents {
		if liveSuffix(de.Name()) == "" {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		p := filepath.Join(s.dir, de.Name())
		total += info.Size()
		if p != keepPath {
			entries = append(entries, ent{p, info.Size(), info.ModTime()})
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	for _, e := range entries {
		if total <= s.maxBytes {
			break
		}
		if os.Remove(e.path) == nil {
			total -= e.size
			s.evictions.Add(1)
		}
	}
}

// GetOrMaterialize returns the stream for key, materializing it with
// fn on a miss and publishing the result. hit reports whether this
// call avoided the decode: the entry was live in the in-process tier,
// loaded from disk, or a concurrent identical call materialized it and
// the result was shared (single-flight). A corrupt entry is
// quarantined and transparently re-materialized. A loaded stream is
// validated against the expected geometry (blockSize, kinds) — a
// mismatch means the key derivation and the entry disagree, and is
// treated as corruption. Returned streams may be shared with other
// callers and must be treated as read-only (they already are
// everywhere: every replay path consumes streams immutably).
func (s *Store) GetOrMaterialize(ctx context.Context, key string, blockSize int, kinds bool, fn func(context.Context) (*trace.BlockStream, error)) (bs *trace.BlockStream, hit bool, err error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		if bs := s.memGet(key, blockSize, kinds); bs != nil {
			return bs, true, nil
		}
		s.mu.Lock()
		if f := s.flight[key]; f != nil {
			s.mu.Unlock()
			select {
			case <-ctx.Done():
				return nil, false, ctx.Err()
			case <-f.done:
			}
			if f.err == nil {
				return f.bs, true, nil
			}
			// The leader failed; its error may be specific to its own
			// context. Take over and try ourselves.
			continue
		}
		f := &flight{done: make(chan struct{})}
		s.flight[key] = f
		s.mu.Unlock()

		bs, hit, err := s.lead(ctx, key, blockSize, kinds, fn)
		f.bs, f.err = bs, err
		close(f.done)
		s.mu.Lock()
		delete(s.flight, key)
		s.mu.Unlock()
		return bs, hit, err
	}
}

// lead is the single-flight winner's path: load, else materialize and
// publish.
func (s *Store) lead(ctx context.Context, key string, blockSize int, kinds bool, fn func(context.Context) (*trace.BlockStream, error)) (*trace.BlockStream, bool, error) {
	bs, err := s.Get(ctx, key)
	if err == nil {
		if bs.BlockSize != blockSize || bs.HasKinds() != kinds {
			s.quarantine(s.entryPath(key))
			err = &CorruptEntryError{Key: key, Path: s.entryPath(key),
				Err: fmt.Errorf("geometry mismatch: entry is block %d kinds %v, key derives block %d kinds %v",
					bs.BlockSize, bs.HasKinds(), blockSize, kinds)}
		} else {
			s.memPut(key, bs)
			return bs, true, nil
		}
	}
	var ce *CorruptEntryError
	if !errors.Is(err, ErrMiss) && !errors.As(err, &ce) {
		return nil, false, err
	}
	bs, err = fn(ctx)
	if err != nil {
		return nil, false, err
	}
	if err := s.Put(ctx, key, bs); err != nil {
		return nil, false, err
	}
	s.memPut(key, bs)
	return bs, false, nil
}

// memGet consults the in-process tier; the geometry is re-validated so
// a key collision can never hand back the wrong stream shape.
func (s *Store) memGet(key string, blockSize int, kinds bool) *trace.BlockStream {
	if s.mem == nil {
		return nil
	}
	bs := s.mem.get(key)
	if bs == nil || bs.BlockSize != blockSize || bs.HasKinds() != kinds {
		return nil
	}
	s.memHits.Add(1)
	return bs
}

func (s *Store) memPut(key string, bs *trace.BlockStream) {
	if s.mem != nil {
		s.mem.put(key, bs)
	}
}

// DiskStats scans the cache directory.
func (s *Store) DiskStats() (DiskStats, error) {
	var ds DiskStats
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return ds, fmt.Errorf("store: %w", err)
	}
	for _, de := range dirents {
		info, err := de.Info()
		if err != nil {
			continue
		}
		switch {
		case filepath.Ext(de.Name()) == entrySuffix:
			ds.Entries++
			ds.Bytes += info.Size()
			ds.StreamEntries++
			ds.StreamBytes += info.Size()
		case filepath.Ext(de.Name()) == resultSuffix:
			ds.Entries++
			ds.Bytes += info.Size()
			ds.ResultEntries++
			ds.ResultBytes += info.Size()
		case filepath.Ext(de.Name()) == quarantineSuffix:
			ds.Quarantined++
			ds.QuarantinedBytes += info.Size()
		case len(de.Name()) >= len(tmpPrefix) && de.Name()[:len(tmpPrefix)] == tmpPrefix:
			ds.Temp++
		}
	}
	return ds, nil
}

// GC removes quarantined entries and abandoned temp files (those last
// modified at least tmpGCAge ago), then enforces maxBytes (when set) by
// LRU eviction. It returns the number of files removed and the bytes
// reclaimed.
func (s *Store) GC(maxBytes int64) (removed int, reclaimed int64, err error) {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	type ent struct {
		path  string
		size  int64
		mtime time.Time
	}
	var (
		live  []ent
		total int64
	)
	for _, de := range dirents {
		info, ierr := de.Info()
		if ierr != nil {
			continue
		}
		p := filepath.Join(s.dir, de.Name())
		isTemp := len(de.Name()) >= len(tmpPrefix) && de.Name()[:len(tmpPrefix)] == tmpPrefix
		switch {
		case isTemp && time.Since(info.ModTime()) < tmpGCAge:
			// Possibly a publish in flight: leave it.
		case filepath.Ext(de.Name()) == quarantineSuffix, isTemp:
			if os.Remove(p) == nil {
				removed++
				reclaimed += info.Size()
			}
		case liveSuffix(de.Name()) != "":
			live = append(live, ent{p, info.Size(), info.ModTime()})
			total += info.Size()
		}
	}
	if maxBytes <= 0 {
		maxBytes = s.maxBytes
	}
	if maxBytes > 0 {
		sort.Slice(live, func(i, j int) bool { return live[i].mtime.Before(live[j].mtime) })
		for _, e := range live {
			if total <= maxBytes {
				break
			}
			if os.Remove(e.path) == nil {
				total -= e.size
				removed++
				reclaimed += e.size
				s.evictions.Add(1)
			}
		}
	}
	return removed, reclaimed, nil
}

// Clear removes every entry, quarantined file and temp file.
func (s *Store) Clear() (removed int, reclaimed int64, err error) {
	dirents, err := os.ReadDir(s.dir)
	if err != nil {
		return 0, 0, fmt.Errorf("store: %w", err)
	}
	for _, de := range dirents {
		name := de.Name()
		isEntry := liveSuffix(name) != "" || filepath.Ext(name) == quarantineSuffix ||
			(len(name) >= len(tmpPrefix) && name[:len(tmpPrefix)] == tmpPrefix)
		if !isEntry {
			continue
		}
		info, ierr := de.Info()
		if ierr != nil {
			continue
		}
		if os.Remove(filepath.Join(s.dir, name)) == nil {
			removed++
			reclaimed += info.Size()
		}
	}
	return removed, reclaimed, nil
}
