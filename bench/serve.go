package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"

	"repro/internal/service"
	"repro/pkg/client"
)

// mbsdConfig is cmd/mbsd's configuration with its default flags: a 256 MiB
// sweep cache, one inference replica, shedding on.
func mbsdConfig() service.Config {
	return service.Config{
		CacheMaxBytes: 256 << 20,
		InferModel:    "smallcnn",
		InferReplicas: 1,
		InferShed:     true,
	}
}

// h2c selects unencrypted HTTP/2 only. Every request of a run then shares
// one connection, so the open loop can keep more requests in flight than
// the host has cores without opening a connection per request.
func h2c() *http.Protocols {
	p := new(http.Protocols)
	p.SetUnencryptedHTTP2(true)
	return p
}

// served is one service.New instance behind the benchmark's own server on
// a loopback port, with a client on one HTTP/2 connection to it.
type served struct {
	svc  *service.Server
	srv  *http.Server
	hc   *http.Client
	c    *client.Client
	base string
	errc chan error
}

func startService(cfg service.Config) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	svc := service.New(cfg)
	s := &served{
		svc:  svc,
		srv:  &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second, Protocols: h2c()},
		hc:   &http.Client{Transport: &http.Transport{Protocols: h2c()}},
		base: "http://" + ln.Addr().String(),
		errc: make(chan error, 1),
	}
	s.c = client.New(s.base, client.WithHTTPClient(s.hc))
	go func() { s.errc <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the service the way mbsd does: jobs and batcher first, then
// the HTTP server, and waits for the serve loop to return. The client drops
// its connection first; otherwise the server's HTTP/2 graceful shutdown
// waits a second for the client to go away.
func (s *served) close() error {
	s.svc.Close()
	s.hc.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.errc; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	return err
}

// scrape is one reading of the server's /metrics and /v1/stats.
type scrape struct {
	m  *client.MetricsSnapshot
	st *client.Stats
}

func (s *served) scrape(ctx context.Context) (scrape, error) {
	m, err := s.c.Metrics(ctx)
	if err != nil {
		return scrape{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	st, err := s.c.Stats(ctx)
	if err != nil {
		return scrape{}, fmt.Errorf("read /v1/stats: %w", err)
	}
	return scrape{m: m, st: st}, nil
}

// delta is the growth of a /metrics series (summed over matching labels)
// between two scrapes.
func delta(a, b scrape, name string, labels ...string) float64 {
	return b.m.Sum(name, labels...) - a.m.Sum(name, labels...)
}

// histMeanMS is the mean of the observations a histogram (in seconds)
// received between two scrapes, in milliseconds.
func histMeanMS(a, b scrape, name string, labels ...string) float64 {
	return 1000 * histMean(a, b, name, labels...)
}

// histMean is the mean of the observations a histogram received between
// two scrapes.
func histMean(a, b scrape, name string, labels ...string) float64 {
	return delta(a, b, name+"_sum", labels...) / delta(a, b, name+"_count", labels...)
}

// serverTotalMS is the mean server-side time of one route between two
// scrapes, from the middleware's phase="total" histogram.
func serverTotalMS(a, b scrape, route string) float64 {
	return histMeanMS(a, b, "http_request_duration_seconds", "route", route, "phase", "total")
}
