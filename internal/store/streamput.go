package store

import (
	"context"
	"errors"
	"fmt"
	"os"

	"dew/internal/trace"
)

// Has reports whether a live entry exists for key, without reading it.
// The streamed replay path uses it to decide up front whether to spool
// a publish alongside the pass — an existence probe, not a validation
// (a corrupt entry still reports true until a Get quarantines it).
func (s *Store) Has(key string) bool {
	if validKey(key) != nil {
		return false
	}
	_, err := os.Stat(s.entryPath(key))
	return err == nil
}

// StreamPut publishes a stream entry assembled span-by-span: spans are
// spooled to disk as they arrive (trace.SpanBlobWriter), and Commit
// encodes the blob — byte-identical to Put of the concatenated stream —
// into a temp file renamed atomically into place. Peak memory is one
// encode chunk, never the stream. Exactly one of Commit or Abort must
// be called; both release the spools.
type StreamPut struct {
	s    *Store
	key  string
	w    *trace.SpanBlobWriter
	done bool
}

// NewStreamPut opens a streamed publish for key. Spools live in the
// cache directory (same filesystem as the final entry; the tmp- prefix
// means GC reclaims them if the process dies mid-publish).
func (s *Store) NewStreamPut(key string, blockSize int, kinds bool) (*StreamPut, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	w, err := trace.NewSpanBlobWriter(s.dir, blockSize, kinds)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &StreamPut{s: s, key: key, w: w}, nil
}

// Spool starts a best-effort publish of the stream entry key alongside
// a streamed replay (trace.ReplaySpans): tap spools each finest-rung
// span it is handed, and finish commits the entry after a replay that
// ended with err == nil and abandons it otherwise. A publish never
// fails the replay — a spool that cannot start or write is dropped and
// the replay goes on. When s is nil, key is empty or the entry already
// exists, nothing is spooled: tap is nil and finish does nothing.
// finish is a no-op after its first call.
func (s *Store) Spool(key string, blockSize int, kinds bool) (tap func(*trace.Span), finish func(ctx context.Context, err error)) {
	var put *StreamPut
	if s != nil && key != "" && !s.Has(key) {
		put, _ = s.NewStreamPut(key, blockSize, kinds)
	}
	if put == nil {
		return nil, func(context.Context, error) {}
	}
	tap = func(sp *trace.Span) {
		if put != nil && put.Add(&sp.BlockStream) != nil {
			put.Abort()
			put = nil
		}
	}
	finish = func(ctx context.Context, err error) {
		if put == nil {
			return
		}
		if err == nil {
			put.Commit(ctx)
		} else {
			put.Abort()
		}
		put = nil
	}
	return tap, finish
}

// Add spools one span (in stream order).
func (p *StreamPut) Add(span *trace.BlockStream) error {
	if p.done {
		return errors.New("store: stream put already finished")
	}
	return p.w.Add(span)
}

// Commit encodes and atomically publishes the entry, with the same
// temp-file-and-rename discipline as Put.
func (p *StreamPut) Commit(ctx context.Context) error {
	if p.done {
		return errors.New("store: stream put already finished")
	}
	p.done = true
	defer p.w.Close()
	if err := ctx.Err(); err != nil {
		return err
	}
	f, err := os.CreateTemp(p.s.dir, tmpPrefix)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	_, err = p.w.Encode(f)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, p.s.entryPath(p.key))
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: publishing %s: %w", p.key, err)
	}
	p.s.stores.Add(1)
	if p.s.maxBytes > 0 {
		p.s.enforceCap(p.key + entrySuffix)
	}
	return nil
}

// Abort abandons the publish and releases the spools. Safe after
// Commit (no-op).
func (p *StreamPut) Abort() {
	if p.done {
		return
	}
	p.done = true
	p.w.Close()
}
