package obs

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"log/slog"
)

// NewLogger returns a text-format slog logger writing to w at the given
// level. It is the one place the repository configures logging, so every
// component's output lines up (proxyd and hhfetch both route through it).
func NewLogger(w io.Writer, level slog.Level) *slog.Logger {
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: level}))
}

var nopLogger = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.LevelError + 1}))

// NopLogger returns a logger that discards everything — the default for
// library components so instrumented code can log unconditionally. It is
// one shared value: a fetch asks for it and must not pay for a handler.
func NopLogger() *slog.Logger { return nopLogger }

// ParseLevel maps the CLI spellings to slog levels.
func ParseLevel(s string) (slog.Level, error) {
	switch s {
	case "debug":
		return slog.LevelDebug, nil
	case "info":
		return slog.LevelInfo, nil
	case "warn":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("obs: unknown log level %q", s)
	}
}

// ReqID renders a wire request ID the way every log line and span
// attribute spells it, so a grep for one ID crosses the client/server
// boundary.
func ReqID(id uint64) string {
	var raw [8]byte
	var text [16]byte
	binary.BigEndian.PutUint64(raw[:], id)
	hex.Encode(text[:], raw[:])
	return string(text[:]) // %016x, without fmt's boxing
}

// ReqIDAttr is the slog attribute carrying a request ID.
func ReqIDAttr(id uint64) slog.Attr { return slog.String("req_id", ReqID(id)) }
