package server

import (
	"net/http"
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
// timeouts set. Both of sushi-server's listeners are built here.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: headerTimeout, IdleTimeout: idleTimeout}
}
