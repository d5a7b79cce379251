package loadgen

import (
	"strconv"
	"strings"
	"time"
)

// churn drives tenant-registry churn alongside a run until stop closes: a
// rotating add/remove cycle over tenants synthetic tenants, each op issued
// to the next node round-robin so replication is exercised in every
// direction. Errors are tolerated (the run may be overloading the nodes on
// purpose); it returns the number of ops a node acknowledged.
func churn(addrs []string, tenants int, interval time.Duration, stop <-chan struct{}) (ops uint64) {
	conns := make(map[string]*conn)
	defer func() {
		for _, c := range conns {
			c.close()
		}
	}()
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for i := 0; ; i++ {
		select {
		case <-stop:
			return ops
		case <-ticker.C:
		}
		addr := addrs[i%len(addrs)]
		var line string
		// Two adds per remove keeps churned tenants mostly present, so
		// replication races surface as registry divergence, not absence.
		// The remove targets the tenant added two ticks earlier — the
		// ADD-tick indices and DEL-tick indices otherwise never coincide
		// whenever tenants is a multiple of 3, and the removal replication
		// path would go unexercised.
		if i%3 == 2 {
			line = "TENANT DEL churn-" + strconv.Itoa((i-2)%tenants)
		} else {
			line = "TENANT ADD churn-" + strconv.Itoa(i%tenants)
		}
		c := conns[addr]
		if c == nil {
			nc, err := dialTCP("tcp", addr)
			if err != nil {
				continue
			}
			c = newConn(nc, codecText)
			conns[addr] = c
		}
		resp, err := c.roundTrip(line)
		if err != nil {
			c.close()
			delete(conns, addr)
			continue
		}
		// "OK ..." acknowledges; "ERR unknown tenant" on a DEL that raced
		// another DEL is benign and still exercised the registry path.
		if strings.HasPrefix(resp, "OK") {
			ops++
		}
	}
}
