package obs

import (
	"io"
	"log/slog"
)

// Logger is a nil-safe structured logger over log/slog's JSON handler:
// one JSON object per line, every line carrying the attributes bound with
// With (the serving layer binds request_id so a request's log lines and
// its trace spans correlate on the same key).
//
// The zero-overhead contract matches the rest of this package: a nil
// *Logger is a valid disabled logger — every method no-ops — and hot
// paths additionally guard with Enabled() before composing attribute
// lists, so a disabled run never boxes arguments into interfaces.
type Logger struct {
	s *slog.Logger
}

// NewLogger creates a JSON-lines logger writing to w at Info level.
func NewLogger(w io.Writer) *Logger {
	return &Logger{s: slog.New(slog.NewJSONHandler(w, nil))}
}

// Enabled reports whether log lines are being recorded. Hot paths guard
// on this before building attribute arguments.
func (l *Logger) Enabled() bool { return l != nil }

// Info logs at Info level. Nil-safe no-op.
func (l *Logger) Info(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Info(msg, args...)
}

// Warn logs at Warn level. Nil-safe no-op.
func (l *Logger) Warn(msg string, args ...any) {
	if l == nil {
		return
	}
	l.s.Warn(msg, args...)
}
