package engine

import (
	"context"
	"errors"
	"testing"

	"dew/internal/cache"
	"dew/internal/leakcheck"
	"dew/internal/trace"
)

func TestReplayCancelled(t *testing.T) {
	defer leakcheck.Check(t)()
	tr := engineTrace(5000)
	bs, err := trace.MaterializeBlockStream(tr.NewSliceReader(), 16)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := trace.ShardBlockStream(bs, 2)
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{MaxLogSets: 5, Assoc: 2, BlockSize: 16, Policy: cache.FIFO, Workers: 2}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Monolithic replay checks ctx up front; sharded replay honours it
	// at substream granularity. Both must refuse a cancelled ctx.
	for name, shards := range map[string]*trace.ShardStream{"stream": nil, "sharded": ss} {
		e, err := New("dew", spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := Replay(ctx, e, bs, shards); !errors.Is(err, context.Canceled) {
			t.Errorf("%s replay on cancelled ctx: %v, want context.Canceled", name, err)
		}
	}
}
