package store

import (
	"bytes"
	"context"
	"errors"
	"os"
	"testing"

	"dew/internal/trace"
)

// TestStreamPutByteIdenticalToPut: a streamed publish must write the
// exact bytes Put would have written for the materialized stream.
func TestStreamPutByteIdenticalToPut(t *testing.T) {
	tr := testTrace(7, 20000)
	ctx := context.Background()
	for _, kinds := range []bool{false, true} {
		var bs *trace.BlockStream
		var err error
		if kinds {
			bs, err = tr.BlockStreamWithKinds(16)
		} else {
			bs, err = tr.BlockStream(16)
		}
		if err != nil {
			t.Fatal(err)
		}
		sDirect, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		sStreamed, err := Open(t.TempDir(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		key := Key(TraceID(tr), 16, 0, kinds)
		if err := sDirect.Put(ctx, key, bs); err != nil {
			t.Fatal(err)
		}

		if sStreamed.Has(key) {
			t.Fatal("empty store reports the entry")
		}
		sp, err := sStreamed.NewStreamPut(key, 16, kinds)
		if err != nil {
			t.Fatal(err)
		}
		p, err := trace.StreamSpans(ctx, tr.NewSliceReader(), 16,
			trace.SpanOptions{MemBytes: 1, Workers: 3, Kinds: kinds})
		if err != nil {
			t.Fatal(err)
		}
		for s := range p.Spans() {
			if err := sp.Add(&s.BlockStream); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Err(); err != nil {
			t.Fatal(err)
		}
		if err := sp.Commit(ctx); err != nil {
			t.Fatal(err)
		}
		if !sStreamed.Has(key) {
			t.Fatal("committed entry not reported by Has")
		}
		if got := sStreamed.Stats().Stores; got != 1 {
			t.Fatalf("stores counter %d, want 1", got)
		}

		want, err := os.ReadFile(sDirect.entryPath(key))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(sStreamed.entryPath(key))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("kinds=%v: streamed entry differs from Put entry (%d vs %d bytes)", kinds, len(got), len(want))
		}
		// No spools or temp files left behind.
		ds, err := sStreamed.DiskStats()
		if err != nil {
			t.Fatal(err)
		}
		if ds.Temp != 0 || ds.StreamEntries != 1 {
			t.Fatalf("disk after commit: %+v", ds)
		}
		// And the entry loads through the normal path.
		back, err := sStreamed.Get(ctx, key)
		if err != nil {
			t.Fatal(err)
		}
		if back.Accesses != bs.Accesses || len(back.IDs) != len(bs.IDs) {
			t.Fatalf("loaded entry: %d accesses/%d runs, want %d/%d",
				back.Accesses, len(back.IDs), bs.Accesses, len(bs.IDs))
		}
	}
}

func TestStreamPutAbortAndMisuse(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := Key("trace:abort", 8, 0, false)
	sp, err := s.NewStreamPut(key, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Add(&trace.BlockStream{BlockSize: 8, IDs: []uint64{1}, Runs: []uint32{2}, Accesses: 2}); err != nil {
		t.Fatal(err)
	}
	sp.Abort()
	if s.Has(key) {
		t.Fatal("aborted publish left an entry")
	}
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Temp != 0 || ds.Entries != 0 {
		t.Fatalf("disk after abort: %+v", ds)
	}
	if err := sp.Add(&trace.BlockStream{BlockSize: 8}); err == nil {
		t.Error("Add after Abort succeeded")
	}
	if err := sp.Commit(context.Background()); err == nil {
		t.Error("Commit after Abort succeeded")
	}
	if _, err := s.NewStreamPut("not-a-key", 8, false); err == nil {
		t.Error("want error for invalid key")
	}
	if s.Has("not-a-key") {
		t.Error("invalid key reported present")
	}
}

// TestSpool: the replay's spool publishes the spans it was handed only
// after a replay that succeeded, leaves nothing behind after one that
// failed, and spools nothing without a store or when the entry exists.
func TestSpool(t *testing.T) {
	ctx := context.Background()
	span := &trace.Span{BlockStream: trace.BlockStream{BlockSize: 8, IDs: []uint64{1, 3}, Runs: []uint32{2, 1}, Accesses: 3}}
	if tap, finish := (*Store)(nil).Spool(Key("trace:spool", 8, 0, false), 8, false); tap != nil {
		t.Error("a nil store spools")
	} else {
		finish(ctx, nil)
	}
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if tap, _ := s.Spool("", 8, false); tap != nil {
		t.Error("an empty key spools")
	}
	failed := Key("trace:failed", 8, 0, false)
	tap, finish := s.Spool(failed, 8, false)
	tap(span)
	finish(ctx, errors.New("replay failed"))
	finish(ctx, nil) // a no-op after the first call
	if s.Has(failed) {
		t.Error("a failed replay published its spool")
	}
	ds, err := s.DiskStats()
	if err != nil {
		t.Fatal(err)
	}
	if ds.Temp != 0 || ds.Entries != 0 {
		t.Fatalf("disk after a failed replay: %+v", ds)
	}
	key := Key("trace:spool", 8, 0, false)
	tap, finish = s.Spool(key, 8, false)
	tap(span)
	tap(span)
	finish(ctx, nil)
	got, err := s.Get(ctx, key)
	if err != nil {
		t.Fatal(err)
	}
	if got.Accesses != 6 || len(got.IDs) != 4 {
		t.Fatalf("published %d accesses in %d runs, want 6 in 4", got.Accesses, len(got.IDs))
	}
	if tap, _ := s.Spool(key, 8, false); tap != nil {
		t.Error("an existing entry is spooled again")
	}
}

// TestStreamPutEnforcesCap: a streamed publish participates in the LRU
// cap exactly as Put does.
func TestStreamPutEnforcesCap(t *testing.T) {
	tr := testTrace(11, 4000)
	bs, err := tr.BlockStream(8)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := bs.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir(), Options{MaxBytes: int64(len(blob)) + 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	oldKey := Key("trace:old", 8, 0, false)
	if err := s.Put(ctx, oldKey, bs); err != nil {
		t.Fatal(err)
	}
	newKey := Key("trace:new", 8, 0, false)
	sp, err := s.NewStreamPut(newKey, 8, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.Add(bs); err != nil {
		t.Fatal(err)
	}
	if err := sp.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if !s.Has(newKey) {
		t.Fatal("streamed entry missing after commit")
	}
	if s.Has(oldKey) {
		t.Fatal("cap did not evict the older entry")
	}
	if s.Stats().Evictions == 0 {
		t.Error("eviction not counted")
	}
}
