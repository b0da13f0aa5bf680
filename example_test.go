package accelring_test

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"accelring"
)

// Example demonstrates the smallest complete use of the library API: a
// single-node ring ordering its own submissions (multi-node rings work the
// same way — give every node the same member list and its own endpoint).
func Example() {
	network := accelring.NewMemoryNetwork(1)
	node, err := accelring.Start(accelring.Options{
		ID:        1,
		Transport: network.Endpoint(1),
		Members:   []accelring.ParticipantID{1},
	})
	if err != nil {
		fmt.Println("start:", err)
		return
	}
	defer node.Close()

	if err := node.Submit([]byte("first"), accelring.Agreed); err != nil {
		fmt.Println("submit:", err)
		return
	}
	if err := node.Submit([]byte("second"), accelring.Safe); err != nil {
		fmt.Println("submit:", err)
		return
	}

	delivered := 0
	for ev := range node.Events() {
		if m, ok := ev.(accelring.Message); ok {
			fmt.Printf("%s (%s)\n", m.Payload, m.Service)
			delivered++
			if delivered == 2 {
				break
			}
		}
	}
	// Output:
	// first (agreed)
	// second (safe)
}

// ExampleStart_cluster shows a three-node ring ordering racing senders:
// every node multicasts at once, and every node delivers all of the
// messages in one total order.
func ExampleStart_cluster() {
	network := accelring.NewMemoryNetwork(7)
	members := []accelring.ParticipantID{1, 2, 3}
	var nodes []*accelring.Node
	for _, id := range members {
		node, err := accelring.Start(accelring.Options{
			ID:        id,
			Transport: network.Endpoint(id),
			Members:   members,
		})
		if err != nil {
			fmt.Println("start:", err)
			return
		}
		defer node.Close()
		nodes = append(nodes, node)
	}

	const perNode = 5
	for round := 1; round <= perNode; round++ {
		for _, node := range nodes {
			msg := fmt.Sprintf("msg %d from node %s", round, node.ID())
			if err := node.Submit([]byte(msg), accelring.Agreed); err != nil {
				fmt.Println("submit:", err)
				return
			}
		}
	}
	want := len(nodes) * perNode
	orders := make([][]string, len(nodes))
	for i, node := range nodes {
		for ev := range node.Events() {
			if m, ok := ev.(accelring.Message); ok {
				if orders[i] = append(orders[i], string(m.Payload)); len(orders[i]) == want {
					break
				}
			}
		}
	}
	same := true
	for _, order := range orders[1:] {
		same = same && slices.Equal(order, orders[0])
	}
	fmt.Printf("%d nodes delivered %d messages each, in the same order: %v\n", len(nodes), want, same)
	// Output:
	// 3 nodes delivered 15 messages each, in the same order: true
}

// Example_replicatedKV is state machine replication on Agreed delivery:
// four replicas race conflicting writes to the same keys, each applies the
// commands in the order the ring delivers them, and the stores end
// identical with no locking beyond the ordered multicast.
func Example_replicatedKV() {
	network := accelring.NewMemoryNetwork(7)
	members := []accelring.ParticipantID{1, 2, 3, 4}
	var nodes []*accelring.Node
	for _, id := range members {
		node, err := accelring.Start(accelring.Options{
			ID:        id,
			Transport: network.Endpoint(id),
			Members:   members,
		})
		if err != nil {
			fmt.Println("start:", err)
			return
		}
		defer node.Close()
		nodes = append(nodes, node)
	}

	// Every replica sets x and a key of its own each round, and every third
	// round deletes x. The ring's total order decides who wins each
	// conflict, the same way at every replica.
	commands := 0
	for round := 0; round < 10; round++ {
		for i, node := range nodes {
			cmds := []string{
				fmt.Sprintf("SET x r%d-round%d", i+1, round),
				fmt.Sprintf("SET own-%d %d", i+1, round),
			}
			if round%3 == 2 {
				cmds = append(cmds, "DEL x")
			}
			for _, c := range cmds {
				if err := node.Submit([]byte(c), accelring.Agreed); err != nil {
					fmt.Println("submit:", err)
					return
				}
				commands++
			}
		}
	}

	stores := make([]map[string]string, len(nodes))
	for i, node := range nodes {
		store := make(map[string]string)
		applied := 0
		for ev := range node.Events() {
			m, ok := ev.(accelring.Message)
			if !ok {
				continue
			}
			switch op := strings.Fields(string(m.Payload)); op[0] {
			case "SET":
				store[op[1]] = op[2]
			case "DEL":
				delete(store, op[1])
			}
			if applied++; applied == commands {
				break
			}
		}
		stores[i] = store
	}
	identical := true
	for _, store := range stores[1:] {
		identical = identical && maps.Equal(store, stores[0])
	}
	fmt.Printf("%d replicas applied %d commands each\n", len(stores), commands)
	fmt.Printf("stores identical: %v\n", identical)
	// Output:
	// 4 replicas applied 92 commands each
	// stores identical: true
}
