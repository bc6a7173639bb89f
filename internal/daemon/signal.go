package daemon

import (
	"context"
	"os"
	"time"
)

// SignalAwareTimeout returns a context that expires after d, or
// immediately on a second signal (an impatient operator hitting Ctrl-C
// twice hard-stops the drain). The mains bound their shutdown with it.
func SignalAwareTimeout(sigCh <-chan os.Signal, d time.Duration) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithTimeout(context.Background(), d)
	go func() {
		select {
		case <-sigCh:
			cancel()
		case <-ctx.Done():
		}
	}()
	return ctx, cancel
}
