package server

import (
	"log"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"
)

const (
	// headerTimeout bounds how long a connection may take to deliver a
	// request's headers, so a client that never finishes them cannot
	// hold a connection open.
	headerTimeout = 10 * time.Second
	// idleTimeout closes a keep-alive connection no request has used
	// for this long.
	idleTimeout = 2 * time.Minute
)

// NewHTTPServer returns the http.Server that listens on addr with
// handler h (nil serves http.DefaultServeMux), with the header and idle
// timeouts set and handler panics contained. Both of sushi-server's
// listeners are built here.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	if h == nil {
		h = http.DefaultServeMux
	}
	return &http.Server{Addr: addr, Handler: recoverPanics(h), ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}

// panics counts the handler panics recoverPanics contained, on every
// listener of the process; GET /metrics exports it.
var panics atomic.Int64

// recoverPanics logs a handler's panic with its stack and answers it
// with a 500 and the usual JSON error body, so the connection serves on.
// A reply already begun cannot be taken back: it is aborted instead with
// http.ErrAbortHandler, which net/http drops quietly and which a handler
// may panic with itself.
func recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p == http.ErrAbortHandler {
				panic(p)
			} else if p != nil {
				panics.Add(1)
				log.Printf("sushi-server: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, p, debug.Stack())
				if tw.wrote {
					panic(http.ErrAbortHandler)
				}
				httpError(w, http.StatusInternalServerError, "internal server error")
			}
		}()
		h.ServeHTTP(tw, r)
	})
}

// trackingWriter records whether a handler has begun its reply.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *trackingWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}
