package trace

import (
	"errors"
	"fmt"
)

// Error taxonomy for trace decoding. Every decode failure is reported
// as a typed, position-carrying error so a caller (or an operator
// reading a CLI message) can name the exact byte or line that broke,
// and so callers can classify failures without string matching:
//
//   - errors.Is(err, ErrCorrupt): the input bytes are malformed
//     (unparseable line, bad kind byte, bad magic, ...).
//   - errors.Is(err, ErrTruncated): the input ended mid-record; a
//     TruncatedError is also a corrupt input (Is reports true for
//     ErrCorrupt too), but callers that want to distinguish "cut off"
//     from "garbage" can.
//
// Decoders never return a partial result alongside one of these
// errors: a materialize call that fails returns a nil stream, and a
// span pipeline that fails ends with the error as its terminal Err, so
// a corrupt input can never silently produce a wrong-but-plausible
// BlockStream.

// ErrCorrupt is the sentinel matched by every malformed-input error.
var ErrCorrupt = errors.New("trace: corrupt input")

// ErrTruncated is the sentinel matched by errors reporting an input
// that ended in the middle of a record.
var ErrTruncated = errors.New("trace: truncated input")

// CorruptError reports malformed input at an exact position. Line is
// 1-based and set for line-oriented formats (.din); Offset is the byte
// offset of the failing record and is -1 when the decoder cannot know
// it (e.g. text decoding through a scanner).
type CorruptError struct {
	Format string // "din" or "dtb1"
	Line   int    // 1-based line number; 0 when not line-oriented
	Offset int64  // byte offset; -1 when unknown
	Msg    string
	Err    error // underlying cause, if any
}

func (e *CorruptError) Error() string {
	pos := ""
	switch {
	case e.Line > 0:
		pos = fmt.Sprintf(" line %d", e.Line)
	case e.Offset >= 0:
		pos = fmt.Sprintf(" offset %d", e.Offset)
	}
	s := fmt.Sprintf("trace: corrupt %s input%s: %s", e.Format, pos, e.Msg)
	if e.Err != nil && e.Msg == "" {
		s = fmt.Sprintf("trace: corrupt %s input%s: %v", e.Format, pos, e.Err)
	}
	return s
}

func (e *CorruptError) Unwrap() error { return e.Err }

// Is makes every CorruptError match the ErrCorrupt sentinel.
func (e *CorruptError) Is(target error) bool { return target == ErrCorrupt }

// TruncatedError reports input that ended mid-record: Offset is the
// byte offset where the record started (-1 when unknown; for a cut
// gzip stream, the decompressed bytes read before the cut) and Accesses
// is how many accesses decoded cleanly before the cut, when the layer
// that noticed the cut counts accesses.
type TruncatedError struct {
	Format   string
	Offset   int64
	Accesses uint64
	Err      error // underlying cause, if any
}

func (e *TruncatedError) Error() string {
	pos := ""
	if e.Offset >= 0 {
		pos = fmt.Sprintf(" at offset %d", e.Offset)
	}
	if e.Accesses == 0 {
		return fmt.Sprintf("trace: truncated %s input%s", e.Format, pos)
	}
	return fmt.Sprintf("trace: truncated %s input%s (after %d accesses)", e.Format, pos, e.Accesses)
}

func (e *TruncatedError) Unwrap() error { return e.Err }

// Is makes a TruncatedError match both ErrTruncated and ErrCorrupt.
func (e *TruncatedError) Is(target error) bool {
	return target == ErrTruncated || target == ErrCorrupt
}
