//! The virtual cluster: rank threads plus a message-passing fabric.
//!
//! Stands in for MPI on Stampede. Each rank is an OS thread; point-to-point
//! messages travel over `std::sync::mpsc` channels. Every communication
//! operation also advances a per-rank *simulated clock* using the α–β model
//! (latency + bytes/bandwidth) of a [`crate::model::MachineModel`], so an
//! executed run reports both real wall time and the time the same traffic
//! would have cost on the modelled interconnect.

use crate::model::MachineModel;
use qcemu_linalg::C64;
use std::sync::mpsc::{channel, Receiver, Sender};

/// A message: a tagged amplitude payload.
struct Msg {
    from: usize,
    payload: Vec<C64>,
}

/// Per-rank communication endpoint handed to the rank closure.
pub struct Comm {
    rank: usize,
    p: usize,
    senders: Vec<Sender<Msg>>,
    receiver: Receiver<Msg>,
    /// Out-of-order receive stash, indexed by source rank.
    stash: Vec<Vec<Vec<C64>>>,
    machine: MachineModel,
    sim_comm_time: f64,
    bytes_sent: u64,
    messages_sent: u64,
}

impl Comm {
    /// This rank's id in `0..p`.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks.
    pub fn size(&self) -> usize {
        self.p
    }

    /// The machine model driving the simulated clock.
    pub fn machine(&self) -> &MachineModel {
        &self.machine
    }

    /// Simulated communication time accumulated so far (seconds on the
    /// modelled interconnect).
    pub fn sim_comm_time(&self) -> f64 {
        self.sim_comm_time
    }

    /// Total payload bytes sent by this rank.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Total messages sent by this rank.
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    fn charge(&mut self, bytes: usize) {
        self.sim_comm_time += self.machine.latency + bytes as f64 / self.machine.net_bw_per_node;
        self.bytes_sent += bytes as u64;
        self.messages_sent += 1;
    }

    /// Sends `payload` to rank `to` (non-blocking; channels are unbounded).
    pub fn send(&mut self, to: usize, payload: Vec<C64>) {
        assert!(to < self.p, "send to rank {to} of {}", self.p);
        assert_ne!(to, self.rank, "self-send is a local copy, not a message");
        self.charge(payload.len() * 16);
        self.senders[to]
            .send(Msg {
                from: self.rank,
                payload,
            })
            .expect("rank channel closed");
    }

    /// Receives the next message from rank `from`, buffering out-of-order
    /// arrivals from other ranks.
    pub fn recv(&mut self, from: usize) -> Vec<C64> {
        assert!(from < self.p);
        loop {
            if let Some(payload) = self.stash[from].pop() {
                return payload;
            }
            let msg = self.receiver.recv().expect("rank channel closed");
            if msg.from == from {
                return msg.payload;
            }
            // LIFO stash per source preserves per-pair FIFO order because
            // we only push when the head is not the requested source and
            // pop in reverse — store FIFO instead:
            self.stash[msg.from].insert(0, msg.payload);
        }
    }

    /// Bidirectional exchange with a partner rank: send ours, return theirs.
    pub fn exchange(&mut self, partner: usize, payload: Vec<C64>) -> Vec<C64> {
        self.send(partner, payload);
        self.recv(partner)
    }

    /// Batched pairwise exchange — the building block of an all-to-all
    /// *permutation*: every `(partner, payload)` chunk is sent first (the
    /// channels are unbounded, so no ordering can deadlock), then one
    /// payload is received from each of the same partners. The caller must
    /// be part of a symmetric pattern — each listed partner is itself
    /// sending this rank exactly one chunk in the same collective — which
    /// is what a qubit-remap permutation guarantees: rank `r` exchanges
    /// with exactly the ranks in its XOR-coset over the remapped global
    /// bits. Returns the received payloads keyed by source rank.
    ///
    /// Unlike [`Comm::all_to_all`], uninvolved ranks cost nothing: no
    /// empty messages, no latency charge.
    pub fn exchange_all(&mut self, outgoing: Vec<(usize, Vec<C64>)>) -> Vec<(usize, Vec<C64>)> {
        let partners: Vec<usize> = outgoing.iter().map(|&(to, _)| to).collect();
        debug_assert!(
            {
                let mut p = partners.clone();
                p.sort_unstable();
                p.windows(2).all(|w| w[0] != w[1])
            },
            "exchange_all partners must be distinct"
        );
        for (to, payload) in outgoing {
            self.send(to, payload);
        }
        partners
            .into_iter()
            .map(|from| {
                let payload = self.recv(from);
                (from, payload)
            })
            .collect()
    }

    /// All-to-all: `chunks[i]` goes to rank `i`; returns what every rank
    /// sent to us (index by source rank). `chunks[self]` is moved through
    /// untouched at zero modelled cost.
    pub fn all_to_all(&mut self, mut chunks: Vec<Vec<C64>>) -> Vec<Vec<C64>> {
        assert_eq!(chunks.len(), self.p, "all_to_all needs one chunk per rank");
        let mut out: Vec<Vec<C64>> = (0..self.p).map(|_| Vec::new()).collect();
        out[self.rank] = std::mem::take(&mut chunks[self.rank]);
        for off in 1..self.p {
            let to = (self.rank + off) % self.p;
            self.send(to, std::mem::take(&mut chunks[to]));
        }
        for off in 1..self.p {
            let from = (self.rank + self.p - off) % self.p;
            out[from] = self.recv(from);
        }
        out
    }

    /// Barrier: exchange empty messages with every other rank.
    pub fn barrier(&mut self) {
        let empties: Vec<Vec<C64>> = (0..self.p).map(|_| Vec::new()).collect();
        let _ = self.all_to_all(empties);
    }
}

/// Statistics returned for each rank after a [`run`].
#[derive(Clone, Copy, Debug, Default)]
pub struct RankStats {
    /// Simulated (modelled) communication seconds.
    pub sim_comm_time: f64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Messages sent.
    pub messages_sent: u64,
}

/// Runs `f(comm)` on `p` rank threads and collects each rank's result plus
/// its communication statistics. `p` must be a power of two (state-vector
/// distribution slices qubits).
pub fn run<T, F>(p: usize, machine: MachineModel, f: F) -> Vec<(T, RankStats)>
where
    T: Send,
    F: Fn(&mut Comm) -> T + Sync,
{
    assert!(
        p >= 1 && p.is_power_of_two(),
        "rank count must be a power of two"
    );
    let mut senders: Vec<Sender<Msg>> = Vec::with_capacity(p);
    let mut receivers: Vec<Option<Receiver<Msg>>> = Vec::with_capacity(p);
    for _ in 0..p {
        let (s, r) = channel();
        senders.push(s);
        receivers.push(Some(r));
    }

    let f = &f;
    let senders = &senders;
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(p);
        for (rank, recv_slot) in receivers.iter_mut().enumerate() {
            let receiver = recv_slot.take().expect("receiver already taken");
            let machine_copy = machine;
            handles.push(scope.spawn(move || {
                let mut comm = Comm {
                    rank,
                    p,
                    senders: senders.clone(),
                    receiver,
                    stash: (0..p).map(|_| Vec::new()).collect(),
                    machine: machine_copy,
                    sim_comm_time: 0.0,
                    bytes_sent: 0,
                    messages_sent: 0,
                };
                let result = f(&mut comm);
                (
                    result,
                    RankStats {
                        sim_comm_time: comm.sim_comm_time,
                        bytes_sent: comm.bytes_sent,
                        messages_sent: comm.messages_sent,
                    },
                )
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qcemu_linalg::c64;

    fn machine() -> MachineModel {
        MachineModel::stampede()
    }

    #[test]
    fn single_rank_runs_without_comm() {
        let results = run(1, machine(), |comm| {
            assert_eq!(comm.rank(), 0);
            assert_eq!(comm.size(), 1);
            42usize
        });
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].0, 42);
        assert_eq!(results[0].1.bytes_sent, 0);
    }

    #[test]
    fn ring_pass_delivers_in_order() {
        let results = run(4, machine(), |comm| {
            let r = comm.rank();
            let next = (r + 1) % 4;
            let prev = (r + 3) % 4;
            comm.send(next, vec![c64(r as f64, 0.0)]);
            let got = comm.recv(prev);
            got[0].re as usize
        });
        for (rank, (got_from, _)) in results.iter().enumerate() {
            assert_eq!(*got_from, (rank + 3) % 4);
        }
    }

    #[test]
    fn exchange_swaps_payloads() {
        let results = run(2, machine(), |comm| {
            let mine = vec![c64(comm.rank() as f64 + 1.0, 0.0); 8];
            let theirs = comm.exchange(1 - comm.rank(), mine);
            theirs[0].re
        });
        assert_eq!(results[0].0, 2.0);
        assert_eq!(results[1].0, 1.0);
    }

    #[test]
    fn all_to_all_routes_correctly() {
        let p = 4;
        let results = run(p, machine(), move |comm| {
            // Rank r sends value 10·r + dest to each dest.
            let chunks: Vec<Vec<C64>> = (0..p)
                .map(|dest| vec![c64((10 * comm.rank() + dest) as f64, 0.0)])
                .collect();
            let received = comm.all_to_all(chunks);
            (0..p)
                .map(|src| received[src][0].re as usize)
                .collect::<Vec<_>>()
        });
        for (rank, (vals, _)) in results.iter().enumerate() {
            for (src, &v) in vals.iter().enumerate() {
                assert_eq!(v, 10 * src + rank, "rank {rank} from {src}");
            }
        }
    }

    #[test]
    fn exchange_all_routes_cosets() {
        // Every rank exchanges one chunk with each member of its XOR coset
        // {rank^1, rank^2, rank^3} — the pattern a 2-slot remap generates.
        let results = run(4, machine(), |comm| {
            let me = comm.rank();
            let outgoing: Vec<(usize, Vec<C64>)> = (1..4)
                .map(|x| (me ^ x, vec![c64((10 * me + (me ^ x)) as f64, 0.0)]))
                .collect();
            let received = comm.exchange_all(outgoing);
            let mut got: Vec<(usize, usize)> = received
                .into_iter()
                .map(|(from, payload)| (from, payload[0].re as usize))
                .collect();
            got.sort_unstable();
            got
        });
        for (rank, (got, stats)) in results.iter().enumerate() {
            for &(from, v) in got {
                assert_eq!(v, 10 * from + rank, "rank {rank} from {from}");
            }
            assert_eq!(got.len(), 3);
            assert_eq!(stats.messages_sent, 3);
            assert_eq!(stats.bytes_sent, 3 * 16);
        }
    }

    #[test]
    fn out_of_order_receive_is_buffered() {
        // Rank 0 receives from 2 then 1, while both send immediately.
        let results = run(4, machine(), |comm| match comm.rank() {
            0 => {
                let a = comm.recv(2);
                let b = comm.recv(1);
                (a[0].re, b[0].re)
            }
            1 => {
                comm.send(0, vec![c64(1.0, 0.0)]);
                (0.0, 0.0)
            }
            2 => {
                comm.send(0, vec![c64(2.0, 0.0)]);
                (0.0, 0.0)
            }
            _ => (0.0, 0.0),
        });
        assert_eq!(results[0].0, (2.0, 1.0));
    }

    #[test]
    fn fifo_order_per_pair() {
        let results = run(2, machine(), |comm| {
            if comm.rank() == 0 {
                comm.send(1, vec![c64(1.0, 0.0)]);
                comm.send(1, vec![c64(2.0, 0.0)]);
                comm.send(1, vec![c64(3.0, 0.0)]);
                vec![]
            } else {
                let a = comm.recv(0)[0].re;
                let b = comm.recv(0)[0].re;
                let c = comm.recv(0)[0].re;
                vec![a, b, c]
            }
        });
        assert_eq!(results[1].0, vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn simulated_clock_charges_alpha_beta() {
        let m = machine();
        let results = run(2, m, |comm| {
            if comm.rank() == 0 {
                comm.send(1, vec![C64::ZERO; 1000]);
            } else {
                let _ = comm.recv(0);
            }
            comm.sim_comm_time()
        });
        let expect = m.latency + 16_000.0 / m.net_bw_per_node;
        assert!(
            (results[0].0 - expect).abs() < 1e-12,
            "rank 0 clock {}",
            results[0].0
        );
        assert_eq!(results[1].0, 0.0, "receiver pays nothing in this model");
        assert_eq!(results[0].1.bytes_sent, 16_000);
        assert_eq!(results[0].1.messages_sent, 1);
    }

    #[test]
    fn barrier_completes() {
        let results = run(8, machine(), |comm| {
            comm.barrier();
            comm.rank()
        });
        assert_eq!(results.len(), 8);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_ranks() {
        let _ = run(3, machine(), |_| ());
    }
}
