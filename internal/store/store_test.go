package store

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dew/internal/leakcheck"
	"dew/internal/trace"
)

func testTrace(seed uint64, n int) trace.Trace {
	rng := rand.New(rand.NewSource(int64(seed)))
	tr := make(trace.Trace, n)
	block := uint64(0)
	for i := range tr {
		if rng.Intn(3) == 0 {
			block = uint64(rng.Intn(100))
		}
		tr[i] = trace.Access{Addr: block*64 + uint64(rng.Intn(64)), Kind: trace.Kind(rng.Intn(3))}
	}
	return tr
}

func testStream(t testing.TB, seed uint64, n, blockSize int, kinds bool) *trace.BlockStream {
	t.Helper()
	tr := testTrace(seed, n)
	mat := trace.MaterializeBlockStream
	if kinds {
		mat = trace.MaterializeBlockStreamWithKinds
	}
	bs, err := mat(tr.NewSliceReader(), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	return bs
}

func openTestStore(t testing.TB, opt Options) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestKeyDistinctness(t *testing.T) {
	keys := map[string]string{}
	add := func(desc, k string) {
		if prev, dup := keys[k]; dup {
			t.Fatalf("key collision: %s and %s", prev, desc)
		}
		keys[k] = desc
		if err := validKey(k); err != nil {
			t.Fatalf("%s: %v", desc, err)
		}
	}
	add("base", Key("file:abc", 16, 0, false))
	add("block", Key("file:abc", 32, 0, false))
	add("shard", Key("file:abc", 16, 2, false))
	add("kinds", Key("file:abc", 16, 0, true))
	add("source", Key("file:abd", 16, 0, false))
	add("app", Key(AppID("CJPEG", 1, 1000), 16, 0, false))
	add("app-seed", Key(AppID("CJPEG", 2, 1000), 16, 0, false))
	add("trace", Key(TraceID(testTrace(1, 10)), 16, 0, false))
	add("trace2", Key(TraceID(testTrace(2, 10)), 16, 0, false))
	if Key("x", 16, 0, false) != Key("x", 16, 0, false) {
		t.Fatal("key derivation is not deterministic")
	}
}

func TestTraceIDContent(t *testing.T) {
	a := testTrace(3, 50)
	b := append(trace.Trace{}, a...)
	if TraceID(a) != TraceID(b) {
		t.Fatal("equal traces produced different IDs")
	}
	b[25].Kind = (b[25].Kind + 1) % 3
	if TraceID(a) == TraceID(b) {
		t.Fatal("kind change did not change the ID")
	}
}

func TestFileID(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "a.din")
	p2 := filepath.Join(dir, "b.din")
	if err := os.WriteFile(p1, []byte("0 12345678\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p2, []byte("0 12345678\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	id1, err := FileID(p1)
	if err != nil {
		t.Fatal(err)
	}
	id2, err := FileID(p2)
	if err != nil {
		t.Fatal(err)
	}
	if id1 != id2 {
		t.Fatal("identical bytes under different names produced different IDs")
	}
	if _, err := FileID(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("FileID of a missing file succeeded")
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	for _, kinds := range []bool{false, true} {
		bs := testStream(t, 5, 5000, 64, kinds)
		key := Key(TraceID(testTrace(5, 5000)), 64, 0, kinds)
		if _, err := s.Get(ctx, key); !errors.Is(err, ErrMiss) {
			t.Fatalf("kinds=%v: Get before Put: %v, want ErrMiss", kinds, err)
		}
		if err := s.Put(ctx, key, bs); err != nil {
			t.Fatal(err)
		}
		got, err := s.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, bs) {
			t.Fatalf("kinds=%v: loaded stream differs from published stream", kinds)
		}
	}
	st := s.Stats()
	if st.Hits != 2 || st.Misses != 2 || st.Stores != 2 {
		t.Fatalf("stats = %+v, want 2 hits, 2 misses, 2 stores", st)
	}
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 2 || ds.Bytes <= 0 || ds.Quarantined != 0 || ds.Temp != 0 {
		t.Fatalf("disk stats = %+v", ds)
	}
}

func TestGetRejectsBadKey(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	for _, key := range []string{"", "short", "../../../../etc/passwd", Key("x", 16, 0, false) + "ff"} {
		if _, err := s.Get(ctx, key); err == nil || errors.Is(err, ErrMiss) {
			t.Fatalf("Get(%q) = %v, want a key error", key, err)
		}
		if err := s.Put(ctx, key, testStream(t, 1, 100, 16, false)); err == nil {
			t.Fatalf("Put(%q) succeeded", key)
		}
	}
}

// TestSingleFlight races N identical misses: exactly one decode must
// run, everyone must receive the identical stream, and the goroutines
// must all unwind.
func TestSingleFlight(t *testing.T) {
	defer leakcheck.Check(t)()
	s := openTestStore(t, Options{})
	ctx := context.Background()
	want := testStream(t, 9, 8000, 32, true)
	key := Key(TraceID(testTrace(9, 8000)), 32, 0, true)

	const callers = 16
	var (
		decodes atomic.Int32
		release = make(chan struct{})
		wg      sync.WaitGroup
		hits    atomic.Int32
	)
	results := make([]*trace.BlockStream, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bs, hit, err := s.GetOrMaterialize(ctx, key, 32, true, func(context.Context) (*trace.BlockStream, error) {
				decodes.Add(1)
				<-release // hold the flight open until every caller has joined
				return want, nil
			})
			results[i], errs[i] = bs, err
			if hit {
				hits.Add(1)
			}
		}(i)
	}
	// Let the callers pile onto the flight, then release the leader.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := decodes.Load(); got != 1 {
		t.Fatalf("%d decodes ran, want 1", got)
	}
	if got := hits.Load(); got != callers-1 {
		t.Fatalf("%d callers reported a hit, want %d (all but the leader)", got, callers-1)
	}
	for i := range results {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("caller %d received a different stream", i)
		}
	}
	// The published entry must serve later processes.
	got, err := s.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("published entry differs from the materialized stream")
	}
}

// TestSingleFlightLeaderFailure checks that one caller's failure does
// not poison the others: a waiter takes over and materializes.
func TestSingleFlightLeaderFailure(t *testing.T) {
	defer leakcheck.Check(t)()
	s := openTestStore(t, Options{})
	ctx := context.Background()
	want := testStream(t, 4, 2000, 16, false)
	key := Key(TraceID(testTrace(4, 2000)), 16, 0, false)

	boom := errors.New("decode exploded")
	var calls atomic.Int32
	started := make(chan struct{})
	fail := make(chan struct{})

	var wg sync.WaitGroup
	wg.Add(1)
	var leadErr error
	go func() {
		defer wg.Done()
		_, _, leadErr = s.GetOrMaterialize(ctx, key, 16, false, func(context.Context) (*trace.BlockStream, error) {
			calls.Add(1)
			close(started)
			<-fail
			return nil, boom
		})
	}()
	<-started
	wg.Add(1)
	var (
		followerBS  *trace.BlockStream
		followerErr error
	)
	go func() {
		defer wg.Done()
		followerBS, _, followerErr = s.GetOrMaterialize(ctx, key, 16, false, func(context.Context) (*trace.BlockStream, error) {
			calls.Add(1)
			return want, nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the follower join the flight
	close(fail)
	wg.Wait()

	if !errors.Is(leadErr, boom) {
		t.Fatalf("leader error = %v, want the injected failure", leadErr)
	}
	if followerErr != nil {
		t.Fatalf("follower failed: %v", followerErr)
	}
	if !reflect.DeepEqual(followerBS, want) {
		t.Fatal("follower stream differs")
	}
	if calls.Load() != 2 {
		t.Fatalf("%d decode calls, want 2 (failed leader + retrying follower)", calls.Load())
	}
}

func TestGetOrMaterializeCancellation(t *testing.T) {
	defer leakcheck.Check(t)()
	s := openTestStore(t, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := s.GetOrMaterialize(ctx, Key("x", 16, 0, false), 16, false,
		func(context.Context) (*trace.BlockStream, error) {
			t.Fatal("decode ran under a cancelled context")
			return nil, nil
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCorruptEntryQuarantine flips a byte in a published entry: the
// load must fail typed, quarantine the file, and GetOrMaterialize must
// transparently re-decode and re-publish.
func TestCorruptEntryQuarantine(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	want := testStream(t, 6, 4000, 32, false)
	key := Key(TraceID(testTrace(6, 4000)), 32, 0, false)
	if err := s.Put(ctx, key, want); err != nil {
		t.Fatal(err)
	}

	path := s.entryPath(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x10
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	var ce *CorruptEntryError
	if _, err := s.Get(ctx, key); !errors.As(err, &ce) {
		t.Fatalf("Get of corrupt entry = %v, want CorruptEntryError", err)
	} else if !errors.Is(err, trace.ErrCorrupt) {
		t.Fatalf("corrupt entry error %v does not match trace.ErrCorrupt", err)
	}
	if _, err := os.Stat(path + quarantineSuffix); err != nil {
		t.Fatalf("corrupt entry was not quarantined: %v", err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt entry still live: %v", err)
	}

	// The fallback path: re-decode, re-publish, then serve from disk.
	decodes := 0
	bs, hit, err := s.GetOrMaterialize(ctx, key, 32, false, func(context.Context) (*trace.BlockStream, error) {
		decodes++
		return want, nil
	})
	if err != nil || hit || decodes != 1 {
		t.Fatalf("fallback: hit=%v decodes=%d err=%v, want a clean re-decode", hit, decodes, err)
	}
	if !reflect.DeepEqual(bs, want) {
		t.Fatal("fallback stream differs")
	}
	if got, err := s.Get(ctx, key); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("re-published entry: %v", err)
	}
	if q := s.Stats().Quarantines; q != 1 {
		t.Fatalf("quarantine counter = %d, want 1", q)
	}
}

// TestGeometryMismatchQuarantine: an entry whose stream disagrees with
// the key's derivation (block size or kind channel) is corruption, not
// a hit.
func TestGeometryMismatchQuarantine(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	bs16 := testStream(t, 7, 1000, 16, false)
	key := Key("file:whatever", 32, 0, false)
	if err := s.Put(ctx, key, bs16); err != nil {
		t.Fatal(err)
	}
	want := testStream(t, 7, 1000, 32, false)
	got, hit, err := s.GetOrMaterialize(ctx, key, 32, false, func(context.Context) (*trace.BlockStream, error) {
		return want, nil
	})
	if err != nil || hit {
		t.Fatalf("hit=%v err=%v, want a quarantine-and-redecode", hit, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("re-decoded stream differs")
	}
	if q := s.Stats().Quarantines; q != 1 {
		t.Fatalf("quarantine counter = %d, want 1", q)
	}
}

// TestEviction publishes entries past the byte cap and checks LRU
// order: the least recently touched entries go first, the newest
// survives.
func TestEviction(t *testing.T) {
	ctx := context.Background()
	one := testStream(t, 8, 3000, 16, false)
	blob, err := one.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Cap at two entries' worth.
	s := openTestStore(t, Options{MaxBytes: int64(len(blob))*2 + 16})

	keys := []string{
		Key("file:a", 16, 0, false),
		Key("file:b", 16, 0, false),
		Key("file:c", 16, 0, false),
	}
	for i, k := range keys {
		if err := s.Put(ctx, k, one); err != nil {
			t.Fatal(err)
		}
		// Ensure distinct mtimes even on coarse filesystem clocks.
		past := time.Now().Add(time.Duration(i-len(keys)) * time.Hour)
		if err := os.Chtimes(s.entryPath(k), past, past); err != nil {
			t.Fatal(err)
		}
	}
	// Publishing a fourth entry must evict the stalest until the cap
	// holds.
	if err := s.Put(ctx, Key("file:d", 16, 0, false), one); err != nil {
		t.Fatal(err)
	}
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 2 {
		t.Fatalf("%d live entries after eviction, want 2", ds.Entries)
	}
	if _, err := os.Stat(s.entryPath(keys[0])); !errors.Is(err, os.ErrNotExist) {
		t.Fatal("stalest entry survived the cap")
	}
	if _, err := os.Stat(s.entryPath(Key("file:d", 16, 0, false))); err != nil {
		t.Fatal("just-published entry was evicted")
	}
	if ev := s.Stats().Evictions; ev != 2 {
		t.Fatalf("eviction counter = %d, want 2", ev)
	}
}

func TestGCAndClear(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	bs := testStream(t, 2, 2000, 16, false)
	key := Key("file:live", 16, 0, false)
	if err := s.Put(ctx, key, bs); err != nil {
		t.Fatal(err)
	}
	// Plant a quarantined file and an abandoned temp file.
	if err := os.WriteFile(filepath.Join(s.Dir(), key+entrySuffix+quarantineSuffix), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	plantTemp(t, s.Dir(), "orphan", 2*tmpGCAge)
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 1 || ds.Quarantined != 1 || ds.Temp != 1 {
		t.Fatalf("disk stats before gc = %+v", ds)
	}

	removed, reclaimed, err := s.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 || reclaimed <= 0 {
		t.Fatalf("gc removed %d files (%d bytes), want the 2 junk files", removed, reclaimed)
	}
	if _, err := s.Get(ctx, key); err != nil {
		t.Fatalf("gc removed a live entry: %v", err)
	}

	removed, _, err = s.Clear()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("clear removed %d files, want the 1 live entry", removed)
	}
	if _, err := s.Get(ctx, key); !errors.Is(err, ErrMiss) {
		t.Fatalf("Get after clear = %v, want ErrMiss", err)
	}
}

// plantTemp writes a temp file last modified age ago.
func plantTemp(t *testing.T, dir, name string, age time.Duration) {
	t.Helper()
	p := filepath.Join(dir, tmpPrefix+name)
	if err := os.WriteFile(p, []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	mtime := time.Now().Add(-age)
	if err := os.Chtimes(p, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

// TestGCSparesFreshTemp: a temp file younger than tmpGCAge may be
// another process's publish in flight, so GC leaves it for that
// publish's rename; an older one is abandoned and removed. DiskStats
// counts both.
func TestGCSparesFreshTemp(t *testing.T) {
	s := openTestStore(t, Options{})
	plantTemp(t, s.Dir(), "inflight", 0)
	plantTemp(t, s.Dir(), "abandoned", tmpGCAge+time.Minute)
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Temp != 2 {
		t.Fatalf("disk stats count %d temp files, want 2", ds.Temp)
	}
	removed, _, err := s.GC(0)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("gc removed %d files, want only the abandoned temp file", removed)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), tmpPrefix+"inflight")); err != nil {
		t.Errorf("gc removed the in-flight temp file: %v", err)
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), tmpPrefix+"abandoned")); !os.IsNotExist(err) {
		t.Errorf("abandoned temp file survived gc: %v", err)
	}
}

// TestGCEnforcesCap: GC with an explicit budget evicts LRU entries
// even when the store itself is uncapped.
func TestGCEnforcesCap(t *testing.T) {
	s := openTestStore(t, Options{})
	ctx := context.Background()
	bs := testStream(t, 3, 3000, 16, false)
	blob, err := bs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i, src := range []string{"file:a", "file:b", "file:c"} {
		k := Key(src, 16, 0, false)
		if err := s.Put(ctx, k, bs); err != nil {
			t.Fatal(err)
		}
		past := time.Now().Add(time.Duration(i-4) * time.Hour)
		if err := os.Chtimes(s.entryPath(k), past, past); err != nil {
			t.Fatal(err)
		}
	}
	removed, _, err := s.GC(int64(len(blob)) + 8)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("gc removed %d entries, want 2", removed)
	}
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 1 {
		t.Fatalf("%d entries after capped gc, want 1", ds.Entries)
	}
	// The most recently touched entry is the survivor.
	if _, err := os.Stat(s.entryPath(Key("file:c", 16, 0, false))); err != nil {
		t.Fatal("most recent entry did not survive the capped gc")
	}
}
