package obs

import (
	"io"
	"log/slog"
)

// NewLogger builds the pipeline's shared structured logger: a text
// handler on w at the given level, with the given attributes (scenario,
// seed, method, ...) attached to every record.
func NewLogger(w io.Writer, level slog.Level, attrs ...slog.Attr) *slog.Logger {
	h := slog.NewTextHandler(w, &slog.HandlerOptions{Level: level})
	if len(attrs) > 0 {
		return slog.New(h.WithAttrs(attrs))
	}
	return slog.New(h)
}
