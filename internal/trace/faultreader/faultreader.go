// Package faultreader is a deterministic fault-injection harness for
// the trace decoders and the span pipeline: it wraps an io.Reader
// (byte-level faults — truncation, bit-flips, short reads, stalls,
// deferred I/O errors) or a trace.Reader (access-level deferred
// errors), with every fault scheduled by explicit offsets and a seed,
// so a failing case replays exactly. The robustness suite uses it to
// prove the contract in internal/trace/errors.go: every injected
// fault surfaces as a typed, position-carrying error and never as a
// partial, silently-wrong stream or a crash.
package faultreader

import (
	"io"
	"time"

	"dew/internal/trace"
)

// Config schedules the faults a Reader injects. Offsets are byte
// positions in the wrapped stream; a negative offset disables that
// fault. Faults compose: a Config may flip a bit, serve short reads
// and then truncate.
type Config struct {
	// Seed drives the short-read length sequence (deterministic;
	// ignored unless ShortReads is set).
	Seed uint64
	// ShortReads serves every Read with a pseudo-random length in
	// [1, len(p)], exercising consumers' partial-read handling.
	ShortReads bool
	// TruncateAt cuts the stream with a clean io.EOF once that many
	// bytes have been served.
	TruncateAt int64
	// FailAt returns Err (io.ErrUnexpectedEOF if nil) once that many
	// bytes have been served — a connection dropped mid-transfer.
	FailAt int64
	Err    error
	// FlipAt XORs FlipMask (default 0x01) into the byte at that
	// offset — a single corrupted byte in an otherwise valid stream.
	FlipAt   int64
	FlipMask byte
	// StallAt sleeps Stall once, before serving the byte at that
	// offset — a hung upstream that later recovers.
	StallAt int64
	Stall   time.Duration
}

// Reader applies a Config's faults to an underlying io.Reader.
type Reader struct {
	r       io.Reader
	cfg     Config
	off     int64
	rng     uint64
	stalled bool
}

// New returns a Reader injecting cfg's faults into r. Negative
// offsets disable the corresponding fault, so the zero-offset Config
// still truncates at byte 0; use -1 for a fault-free passthrough.
func New(r io.Reader, cfg Config) *Reader {
	if cfg.FlipMask == 0 {
		cfg.FlipMask = 0x01
	}
	rng := cfg.Seed
	if rng == 0 {
		rng = 0x9e3779b97f4a7c15
	}
	return &Reader{r: r, cfg: cfg, rng: rng}
}

// Offset returns how many bytes have been served so far.
func (f *Reader) Offset() int64 { return f.off }

// next is a splitmix64 step: cheap, seeded, deterministic.
func (f *Reader) next() uint64 {
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Read implements io.Reader with the configured faults applied in
// offset order: stall, then hard failure, then truncation, then the
// (possibly shortened) read with any scheduled bit-flip.
func (f *Reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	if f.cfg.StallAt >= 0 && !f.stalled && f.off >= f.cfg.StallAt {
		f.stalled = true
		time.Sleep(f.cfg.Stall)
	}
	if f.cfg.FailAt >= 0 && f.off >= f.cfg.FailAt {
		err := f.cfg.Err
		if err == nil {
			err = io.ErrUnexpectedEOF
		}
		return 0, err
	}
	limit := int64(len(p))
	if f.cfg.FailAt >= 0 && f.cfg.FailAt-f.off < limit {
		limit = f.cfg.FailAt - f.off
	}
	if f.cfg.TruncateAt >= 0 {
		if rem := f.cfg.TruncateAt - f.off; rem <= 0 {
			return 0, io.EOF
		} else if rem < limit {
			limit = rem
		}
	}
	if f.cfg.ShortReads && limit > 1 {
		limit = 1 + int64(f.next()%uint64(limit))
	}
	n, err := f.r.Read(p[:limit])
	if f.cfg.FlipAt >= 0 && f.cfg.FlipAt >= f.off && f.cfg.FlipAt < f.off+int64(n) {
		p[f.cfg.FlipAt-f.off] ^= f.cfg.FlipMask
	}
	f.off += int64(n)
	return n, err
}

// Passthrough returns a Config with every fault disabled — the base
// for tests that enable faults one at a time.
func Passthrough() Config {
	return Config{TruncateAt: -1, FailAt: -1, FlipAt: -1, StallAt: -1}
}

// AccessReader wraps a trace.Reader and returns Err (after serving
// FailAfter accesses cleanly) — a decode source that dies mid-trace at
// an exact access position.
type AccessReader struct {
	r      trace.Reader
	n      uint64
	failAt uint64
	err    error
}

// NewAccess returns an AccessReader failing after failAfter accesses.
func NewAccess(r trace.Reader, failAfter uint64, err error) *AccessReader {
	if err == nil {
		err = io.ErrUnexpectedEOF
	}
	return &AccessReader{r: r, failAt: failAfter, err: err}
}

// Next implements trace.Reader.
func (a *AccessReader) Next() (trace.Access, error) {
	if a.n >= a.failAt {
		return trace.Access{}, a.err
	}
	acc, err := a.r.Next()
	if err == nil {
		a.n++
	}
	return acc, err
}

// Served returns how many accesses were served before the failure.
func (a *AccessReader) Served() uint64 { return a.n }
