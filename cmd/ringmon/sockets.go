package main

import (
	"encoding/json"
	"fmt"
	"log"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"accelring"
	"accelring/internal/client"
	"accelring/internal/ipc"
)

// runSockets polls one or more daemons' IPC sockets for CmdStats
// snapshots and renders the serving-side counters — sessions,
// subscriptions, fan-out shedding — per daemon. Unlike the ring-observer
// modes it adds no hop to the token rotation: it is an ordinary local
// client of each daemon.
func runSockets(logger *log.Logger, sockets []string, interval, connectWait time.Duration) int {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()

	// Shed/disconnect totals are cumulative; report deltas per interval.
	lastShed := make(map[string]uint64, len(sockets))
	lastDisc := make(map[string]uint64, len(sockets))
	for {
		for _, sock := range sockets {
			snap, err := pollStats(sock, connectWait)
			if err != nil {
				fmt.Printf("%s %s: %v\n", time.Now().Format("15:04:05.000"), sock, err)
				continue
			}
			shedDelta := snap.Shed - lastShed[sock]
			discDelta := snap.Disconnects - lastDisc[sock]
			lastShed[sock], lastDisc[sock] = snap.Shed, snap.Disconnects
			fmt.Printf("%s %s [%s]: sessions %d groups %d subscriptions %d | shed %d (+%d) disconnects %d (+%d) policy %s\n",
				time.Now().Format("15:04:05.000"), sock, snap.Daemon,
				snap.Sessions, snap.Groups, snap.Subscriptions,
				snap.Shed, shedDelta, snap.Disconnects, discDelta, snap.FanoutPolicy)
			if snap.Detached > 0 || snap.Resumes > 0 || snap.Draining || snap.DrainMs > 0 {
				fmt.Printf("%s %s resume: detached %d resumes %d gaps %d expired %d draining %v drainMs %d\n",
					time.Now().Format("15:04:05.000"), sock,
					snap.Detached, snap.Resumes, snap.ResumeGaps, snap.ResumeExpired,
					snap.Draining, snap.DrainMs)
			}
			var node accelring.MetricsSnapshot
			if err := json.Unmarshal(snap.Node, &node); err == nil && node.Fanout != nil {
				f := node.Fanout
				fmt.Printf("%s %s fanout: published %d enqueued %d delivered %d in %d writes maxBacklog %d/%d | ingest %d frames in %d bursts\n",
					time.Now().Format("15:04:05.000"), sock,
					f.Published, f.Enqueued, f.Delivered, f.Writes, f.MaxBacklog, f.QueueDepth,
					f.BurstFrames, f.Bursts)
			}
			printTopClients(sock, snap)
		}
		select {
		case <-ticker.C:
		case <-sig:
			logger.Print("stopping")
			return 0
		}
	}
}

// pollStats runs one connect/stats/close cycle against a daemon socket, so
// ringmon holds no session between intervals and a daemon restart only
// costs one missed poll.
func pollStats(sock string, connectWait time.Duration) (ipc.StatsSnapshot, error) {
	c, err := client.Dial("unix", sock, fmt.Sprintf("ringmon-%d", os.Getpid()),
		client.Options{ConnectWait: connectWait})
	if err != nil {
		return ipc.StatsSnapshot{}, err
	}
	defer c.Close()
	return c.Stats()
}

// printTopClients lists the busiest client sessions by backlog then
// deliveries — the ones a backpressure policy would act on first. At
// serving scale the daemon omits the per-client map (ClientsOmitted);
// then only the aggregate lines above are available.
func printTopClients(sock string, snap ipc.StatsSnapshot) {
	if snap.ClientsOmitted > 0 {
		fmt.Printf("%s %s clients: %d sessions (per-client detail omitted at this scale)\n",
			time.Now().Format("15:04:05.000"), sock, snap.ClientsOmitted)
		return
	}
	type kv struct {
		name string
		st   ipc.ClientStats
	}
	list := make([]kv, 0, len(snap.Clients))
	for name, st := range snap.Clients {
		list = append(list, kv{name, st})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].st.Backlog != list[j].st.Backlog {
			return list[i].st.Backlog > list[j].st.Backlog
		}
		if list[i].st.Deliveries != list[j].st.Deliveries {
			return list[i].st.Deliveries > list[j].st.Deliveries
		}
		return list[i].name < list[j].name
	})
	const top = 5
	for i, c := range list {
		if i >= top {
			fmt.Printf("%s %s   … %d more clients\n",
				time.Now().Format("15:04:05.000"), sock, len(list)-top)
			break
		}
		fmt.Printf("%s %s   %s: subs %d submits %d deliveries %d shed %d backlog %d (hw %d)\n",
			time.Now().Format("15:04:05.000"), sock, c.name,
			c.st.Subscriptions, c.st.Submits, c.st.Deliveries, c.st.Shed,
			c.st.Backlog, c.st.HighWater)
	}
}
