//! Cluster-scale deployments: Figs. 5, 6, 9, 10 of the paper.
//!
//! The experimental cluster (§IV-A): *"50 physical machines connected over
//! a 1 Gbps LAN. There were 46 HP DL160 servers (Xeon E5620, 12 GB RAM)
//! and 4 HP DL320e servers (Xeon E3-1220 V2, 8 GB RAM)."* We reproduce the
//! heterogeneity: roughly one node in twelve is a "small" node with half
//! the cores and two-thirds of the RAM.
//!
//! Jobs are chains of stages; each stage instance is placed round-robin
//! over the nodes, so with enough jobs there is data flow between every
//! pair of nodes (the paper's scaling setup). Per-job steady-state rates
//! are solved by **progressive filling (max-min fairness)** over the
//! shared node resources — each iteration raises all unfixed job rates
//! until some CPU or NIC saturates, then freezes the jobs crossing it.
//! This fluid solution is the steady state of the same cost model the
//! relay DES integrates over time.
//!
//! Over-provisioning (more instances on a node than its job slots) charges
//! an efficiency penalty on that node's resources, modeling the context
//! switching and TCP contention the paper observes past 50 concurrent
//! jobs (Fig. 5's decline).

use crate::ethernet::wire_bytes;
use crate::profile::EngineProfile;
use neptune_link::FaultPlan;

/// One stage-to-stage hop description.
#[derive(Debug, Clone, Copy)]
pub struct StageSpec {
    /// Domain-logic CPU µs per packet at the *receiving* stage of this
    /// hop.
    pub process_us: f64,
    /// Serialized message size on this hop, bytes.
    pub msg_size: usize,
}

/// Cluster experiment parameters.
#[derive(Debug, Clone)]
pub struct ClusterParams {
    /// Engine cost model.
    pub profile: EngineProfile,
    /// Number of nodes.
    pub nodes: usize,
    /// Number of concurrent jobs.
    pub jobs: usize,
    /// The job's hops: a J-stage job has J-1 entries.
    pub hops: Vec<StageSpec>,
    /// Application-level buffer capacity (batched engines).
    pub buffer_bytes: usize,
    /// Per-node link bandwidth, bits/s.
    pub bandwidth_bps: f64,
    /// Cores on a regular node (paper: 8 virtual cores).
    pub big_cores: usize,
    /// Efficiency penalty per surplus resident instance (see module docs).
    pub overload_alpha: f64,
}

impl ClusterParams {
    /// The paper's two-stage scaling job: small messages relayed from a
    /// source stage to a sink stage.
    pub fn scaling_job(profile: EngineProfile, nodes: usize, jobs: usize) -> Self {
        ClusterParams {
            profile,
            nodes,
            jobs,
            hops: vec![StageSpec { process_us: 0.1, msg_size: 50 }],
            buffer_bytes: 1 << 20,
            bandwidth_bps: 1e9,
            big_cores: 8,
            overload_alpha: 0.05,
        }
    }

    /// The four-stage manufacturing-equipment monitoring job (Fig. 8):
    /// ingest full readings, extract the six monitored fields, detect
    /// sensor/valve state changes, aggregate delays over a 24 h window.
    /// The per-stage domain costs are sized so NEPTUNE's 50-job cumulative
    /// lands near the paper's 15 M messages/s headline.
    pub fn manufacturing_job(profile: EngineProfile, nodes: usize, jobs: usize) -> Self {
        ClusterParams {
            profile,
            nodes,
            jobs,
            hops: vec![
                StageSpec { process_us: 3.0, msg_size: 120 }, // ingest -> extract
                StageSpec { process_us: 2.5, msg_size: 60 },  // extract -> detect
                StageSpec { process_us: 2.5, msg_size: 60 },  // detect -> aggregate
            ],
            buffer_bytes: 1 << 20,
            bandwidth_bps: 1e9,
            big_cores: 8,
            overload_alpha: 0.05,
        }
    }
}

/// Cluster experiment results.
#[derive(Debug, Clone)]
pub struct ClusterResult {
    /// Sum of per-job source rates, messages/s.
    pub cumulative_throughput: f64,
    /// Sum of all node transmit rates, Gbps.
    pub cumulative_bandwidth_gbps: f64,
    /// Each job's steady-state rate.
    pub per_job_throughput: Vec<f64>,
    /// Per-node CPU utilization (0..1), all virtual cores pooled.
    pub per_node_cpu: Vec<f64>,
    /// Per-node memory utilization (0..1).
    pub per_node_mem: Vec<f64>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Resource {
    /// A node's pooled CPU (all cores).
    Cpu(usize),
    /// A node's transmit link direction.
    NicTx(usize),
    /// A node's receive link direction.
    NicRx(usize),
    /// One stage instance's worker core: a single operator instance
    /// (parallelism 1 per stage, like the paper's jobs) cannot exceed one
    /// core no matter how idle its node is. Keyed by (job, stage).
    InstanceCore(usize, usize),
}

/// Deterministic per-node jitter in `[-spread, +spread]` (machines differ
/// slightly in practice; the paper's t-tests need that variance).
fn node_jitter(node: usize, spread: f64) -> f64 {
    let mut h = node as u64 ^ 0x9E37_79B9_7F4A_7C15;
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    let unit = (h % 10_000) as f64 / 10_000.0; // [0, 1)
    (unit * 2.0 - 1.0) * spread
}

fn is_small_node(node: usize, nodes: usize) -> bool {
    // Roughly one node in twelve is a DL320e-class small node (4 of 50).
    nodes >= 12 && node >= nodes - nodes / 12
}

/// Solve the cluster's steady state.
pub fn simulate_cluster(params: &ClusterParams) -> ClusterResult {
    simulate_with_dead(params, &[])
}

/// Solve the cluster's steady state under a [`FaultPlan`]: every node the
/// plan has killed by `step` contributes no capacity, and the stage
/// instances it hosted are restarted round-robin over the surviving nodes,
/// mirroring the runtime's dead-resource restart-from-replay-point. The
/// surviving cluster re-solves max-min fairness over the reduced capacity,
/// so throughput degrades gracefully instead of collapsing.
pub fn simulate_cluster_with_faults(
    params: &ClusterParams,
    plan: &FaultPlan,
    step: u64,
) -> ClusterResult {
    simulate_with_dead(params, &plan.dead_nodes_at(step))
}

fn simulate_with_dead(params: &ClusterParams, dead_nodes: &[usize]) -> ClusterResult {
    assert!(params.nodes > 0 && params.jobs > 0);
    assert!(!params.hops.is_empty(), "a job needs at least one hop");
    let p = params.profile;
    let n_nodes = params.nodes;
    let stages = params.hops.len() + 1;

    let mut dead = vec![false; n_nodes];
    for &m in dead_nodes {
        if m < n_nodes {
            dead[m] = true;
        }
    }
    assert!(dead.iter().any(|&d| !d), "fault plan killed every node");

    // ---- Placement: stage s of job j on node (j + s) % nodes. ----
    // Consecutive stages land on consecutive nodes, so node m's transmit
    // link and receive link serve *different* jobs — with jobs ≈ nodes
    // every full-duplex direction of every link is engaged, the paper's
    // "data flow between every pair of nodes" saturation point.
    // Under faults the same round-robin runs over the ring of *alive*
    // nodes: dead nodes drop out and displaced instances restart on the
    // survivors while consecutive stages stay on distinct (consecutive)
    // survivors, so hops keep paying their network cost.
    //
    // The ring rule itself lives in `neptune_cluster::placement` — the
    // coordinator partitions real multi-process jobs with the same
    // function, so the fluid model and the runtime agree on who hosts
    // what (see the cross-crate parity tests in both crates).
    let alive: Vec<usize> = (0..n_nodes).filter(|&m| !dead[m]).collect();
    let place = {
        let alive = &alive;
        move |job: usize, stage: usize| neptune_cluster::placement::ring_place(job, stage, alive)
    };
    let mut instances_per_node = vec![0usize; n_nodes];
    for j in 0..params.jobs {
        for s in 0..stages {
            instances_per_node[place(j, s)] += 1;
        }
    }

    // ---- Per-hop unit costs. ----
    // Batch size per hop (packets per unit).
    let unit_n: Vec<u64> = params
        .hops
        .iter()
        .map(|h| if p.batched { (params.buffer_bytes / h.msg_size).max(1) as u64 } else { 1 })
        .collect();
    // CPU µs per *message* on the send and receive side of each hop.
    let send_us: Vec<f64> =
        params.hops.iter().zip(&unit_n).map(|(_, &n)| p.send_cpu_us(n) / n as f64).collect();
    let recv_us: Vec<f64> = params
        .hops
        .iter()
        .zip(&unit_n)
        .map(|(h, &n)| p.recv_cpu_us(n) / n as f64 + h.process_us)
        .collect();
    // Wire bytes per message on each hop (Ethernet framing amortized over
    // the unit).
    let hop_wire: Vec<f64> = params
        .hops
        .iter()
        .zip(&unit_n)
        .map(|(h, &n)| wire_bytes(p.unit_payload_bytes(n, h.msg_size)) as f64 / n as f64)
        .collect();

    // ---- Resource capacities. ----
    let cpu_capacity: Vec<f64> = (0..n_nodes)
        .map(|m| {
            let cores =
                if is_small_node(m, n_nodes) { params.big_cores / 2 } else { params.big_cores };
            // Over-provisioning penalty: surplus instances beyond one
            // job's worth of stages cost efficiency.
            let surplus = instances_per_node[m].saturating_sub(stages) as f64;
            let eff = 1.0 / (1.0 + params.overload_alpha * surplus);
            let jitter = 1.0 + node_jitter(m, 0.03);
            cores as f64 * 1e6 * eff * jitter // µs of CPU per second
        })
        .collect();
    let nic_capacity: Vec<f64> = (0..n_nodes)
        .map(|m| {
            let surplus = instances_per_node[m].saturating_sub(stages) as f64;
            let eff = 1.0 / (1.0 + params.overload_alpha * surplus);
            params.bandwidth_bps / 8.0 * eff // bytes per second, each direction
        })
        .collect();

    // ---- Per-job unit demand on every resource. ----
    // demand[j] -> Vec<(Resource, units_per_message)>
    let mut demands: Vec<Vec<(Resource, f64)>> = Vec::with_capacity(params.jobs);
    for j in 0..params.jobs {
        let mut d: Vec<(Resource, f64)> = Vec::new();
        for h in 0..params.hops.len() {
            let src = place(j, h);
            let dst = place(j, h + 1);
            d.push((Resource::Cpu(src), send_us[h]));
            d.push((Resource::Cpu(dst), recv_us[h]));
            // Per-instance single-core ceilings: the sending work of hop h
            // runs on stage h's instance; the receiving+processing work on
            // stage h+1's instance.
            d.push((Resource::InstanceCore(j, h), send_us[h]));
            d.push((Resource::InstanceCore(j, h + 1), recv_us[h]));
            if src != dst {
                d.push((Resource::NicTx(src), hop_wire[h]));
                d.push((Resource::NicRx(dst), hop_wire[h]));
            }
        }
        demands.push(d);
    }

    let capacity_of = |r: &Resource| -> f64 {
        match r {
            Resource::Cpu(m) => cpu_capacity[*m],
            Resource::NicTx(m) | Resource::NicRx(m) => nic_capacity[*m],
            // One worker core, with the host node's jitter.
            Resource::InstanceCore(j, s) => {
                let m = place(*j, *s);
                1e6 * (1.0 + node_jitter(m, 0.03))
            }
        }
    };

    // ---- Progressive filling (max-min fairness). ----
    let mut rate = vec![0.0f64; params.jobs];
    let mut fixed = vec![false; params.jobs];
    let mut remaining: std::collections::HashMap<Resource, f64> = std::collections::HashMap::new();
    for d in &demands {
        for (r, _) in d {
            remaining.entry(*r).or_insert_with(|| capacity_of(r));
        }
    }
    for _round in 0..params.jobs + 2 {
        if fixed.iter().all(|&f| f) {
            break;
        }
        // Aggregate unfixed demand per resource.
        let mut unfixed_demand: std::collections::HashMap<Resource, f64> =
            std::collections::HashMap::new();
        for (j, d) in demands.iter().enumerate() {
            if fixed[j] {
                continue;
            }
            for (r, c) in d {
                *unfixed_demand.entry(*r).or_insert(0.0) += c;
            }
        }
        // Smallest uniform increment that saturates some resource.
        let mut delta = f64::INFINITY;
        for (r, demand) in &unfixed_demand {
            if *demand > 0.0 {
                delta = delta.min(remaining[r] / demand);
            }
        }
        if !delta.is_finite() {
            break;
        }
        // Apply the increment.
        for (j, d) in demands.iter().enumerate() {
            if fixed[j] {
                continue;
            }
            rate[j] += delta;
            for (r, c) in d {
                *remaining.get_mut(r).expect("seeded") -= c * delta;
            }
        }
        // Freeze jobs touching saturated resources.
        let saturated: Vec<Resource> = remaining
            .iter()
            .filter(|(r, &left)| {
                left <= capacity_of(r) * 1e-9 && unfixed_demand.get(r).copied().unwrap_or(0.0) > 0.0
            })
            .map(|(r, _)| *r)
            .collect();
        for (j, d) in demands.iter().enumerate() {
            if !fixed[j] && d.iter().any(|(r, _)| saturated.contains(r)) {
                fixed[j] = true;
            }
        }
    }

    // ---- Reporting. ----
    let cumulative: f64 = rate.iter().sum();
    let mut node_cpu_used = vec![0.0f64; n_nodes];
    let mut node_tx_bytes = vec![0.0f64; n_nodes];
    for (j, d) in demands.iter().enumerate() {
        for (r, c) in d {
            match r {
                Resource::Cpu(m) => node_cpu_used[*m] += c * rate[j],
                Resource::NicTx(m) => node_tx_bytes[*m] += c * rate[j],
                Resource::NicRx(_) | Resource::InstanceCore(..) => {}
            }
        }
    }
    let per_node_cpu: Vec<f64> =
        (0..n_nodes).map(|m| (node_cpu_used[m] / cpu_capacity[m]).min(1.0)).collect();
    let cumulative_bandwidth_gbps: f64 = node_tx_bytes.iter().map(|b| b * 8.0 / 1e9).sum();

    // Memory: a base OS/runtime share, plus per-instance heap and queue
    // bytes. Bounded engines hold at most the watermark budget per
    // instance; the unbounded engine's steady-state queues hover around a
    // couple of batches when it is not overloaded (the Fig. 10 regime).
    let per_node_mem: Vec<f64> = (0..n_nodes)
        .map(|m| {
            if dead[m] {
                return 0.0;
            }
            let ram = if is_small_node(m, n_nodes) { 8.0e9 } else { 12.0e9 };
            let per_instance_heap = 96.0e6;
            let queue = if p.bounded_queues { 8.0e6 } else { 24.0e6 };
            let used = 0.12 * ram
                + instances_per_node[m] as f64 * (per_instance_heap + queue)
                + node_jitter(m ^ 0xABCD, 0.02) * ram;
            (used / ram).clamp(0.0, 1.0)
        })
        .collect();

    ClusterResult {
        cumulative_throughput: cumulative,
        cumulative_bandwidth_gbps,
        per_job_throughput: rate,
        per_node_cpu,
        per_node_mem,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{neptune_profile, storm_profile};

    #[test]
    fn throughput_rises_with_jobs_then_declines() {
        // Fig. 5's shape: rise to a peak around jobs == nodes, then drop.
        let at = |jobs| {
            simulate_cluster(&ClusterParams::scaling_job(neptune_profile(), 50, jobs))
                .cumulative_throughput
        };
        let t10 = at(10);
        let t25 = at(25);
        let t50 = at(50);
        let t100 = at(100);
        assert!(t25 > t10 * 1.5, "rise: {t10:.2e} -> {t25:.2e}");
        assert!(t50 > t25, "still rising to the peak: {t25:.2e} -> {t50:.2e}");
        assert!(t100 < t50, "over-provisioned decline: {t50:.2e} -> {t100:.2e}");
    }

    #[test]
    fn cumulative_throughput_near_paper_headline() {
        // §VI: ~100M packets/s cumulative on the 50-node cluster.
        let r = simulate_cluster(&ClusterParams::scaling_job(neptune_profile(), 50, 50));
        assert!(
            (5e7..2e8).contains(&r.cumulative_throughput),
            "cumulative {:.3e} outside the ~100M regime",
            r.cumulative_throughput
        );
    }

    #[test]
    fn scaling_linear_in_cluster_size() {
        // Fig. 6: fixed 50 jobs, growing cluster -> linear-ish scaling.
        let at = |nodes| {
            simulate_cluster(&ClusterParams::scaling_job(neptune_profile(), nodes, 50))
                .cumulative_throughput
        };
        let t10 = at(10);
        let t20 = at(20);
        let t40 = at(40);
        assert!((t20 / t10 - 2.0).abs() < 0.5, "10->20 nodes ratio {}", t20 / t10);
        assert!((t40 / t20 - 2.0).abs() < 0.5, "20->40 nodes ratio {}", t40 / t20);
    }

    #[test]
    fn neptune_beats_storm_on_manufacturing() {
        // Fig. 9's shape: NEPTUNE several-fold above Storm.
        let np = simulate_cluster(&ClusterParams::manufacturing_job(neptune_profile(), 50, 32));
        let st = simulate_cluster(&ClusterParams::manufacturing_job(storm_profile(), 50, 32));
        let ratio = np.cumulative_throughput / st.cumulative_throughput;
        assert!(
            ratio > 3.0,
            "neptune {:.3e} vs storm {:.3e} (ratio {ratio:.1})",
            np.cumulative_throughput,
            st.cumulative_throughput
        );
    }

    #[test]
    fn manufacturing_scales_linearly_in_jobs() {
        let at = |jobs| {
            simulate_cluster(&ClusterParams::manufacturing_job(neptune_profile(), 50, jobs))
                .cumulative_throughput
        };
        let t8 = at(8);
        let t16 = at(16);
        let t32 = at(32);
        assert!((t16 / t8 - 2.0).abs() < 0.4);
        assert!((t32 / t16 - 2.0).abs() < 0.4);
    }

    #[test]
    fn storm_cpu_exceeds_neptune_cpu() {
        // Fig. 10: Storm's cluster-wide CPU is consistently higher for the
        // same offered work. Compare at Storm's achievable rate: give both
        // engines the same job count and compare mean utilization per
        // delivered message.
        let np = simulate_cluster(&ClusterParams::manufacturing_job(neptune_profile(), 50, 50));
        let st = simulate_cluster(&ClusterParams::manufacturing_job(storm_profile(), 50, 50));
        let np_cpu_per_msg = np.per_node_cpu.iter().sum::<f64>() / np.cumulative_throughput;
        let st_cpu_per_msg = st.per_node_cpu.iter().sum::<f64>() / st.cumulative_throughput;
        assert!(
            st_cpu_per_msg > np_cpu_per_msg * 2.0,
            "storm per-msg cpu {st_cpu_per_msg:.3e} vs neptune {np_cpu_per_msg:.3e}"
        );
    }

    #[test]
    fn memory_not_significantly_different() {
        // Fig. 10's memory result: no noticeable difference.
        let np = simulate_cluster(&ClusterParams::manufacturing_job(neptune_profile(), 50, 50));
        let st = simulate_cluster(&ClusterParams::manufacturing_job(storm_profile(), 50, 50));
        let np_mean = np.per_node_mem.iter().sum::<f64>() / 50.0;
        let st_mean = st.per_node_mem.iter().sum::<f64>() / 50.0;
        assert!(
            (np_mean - st_mean).abs() / np_mean < 0.2,
            "memory means diverge: {np_mean} vs {st_mean}"
        );
    }

    #[test]
    fn heterogeneous_nodes_present() {
        let r = simulate_cluster(&ClusterParams::scaling_job(neptune_profile(), 50, 50));
        assert_eq!(r.per_node_cpu.len(), 50);
        assert_eq!(r.per_node_mem.len(), 50);
        // Small nodes exist and have higher memory fraction (less RAM).
        assert!(is_small_node(49, 50));
        assert!(!is_small_node(0, 50));
    }

    #[test]
    fn max_min_rates_are_balanced_for_identical_jobs() {
        let r = simulate_cluster(&ClusterParams::scaling_job(neptune_profile(), 50, 25));
        let min = r.per_job_throughput.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = r.per_job_throughput.iter().cloned().fold(0.0, f64::max);
        // Identical jobs on near-identical nodes: rates within ~4x
        // (heterogeneous small nodes create the spread).
        assert!(max / min < 4.0, "rates wildly unbalanced: {min:.2e}..{max:.2e}");
    }

    #[test]
    fn deterministic() {
        let a = simulate_cluster(&ClusterParams::scaling_job(neptune_profile(), 20, 20));
        let b = simulate_cluster(&ClusterParams::scaling_job(neptune_profile(), 20, 20));
        assert_eq!(a.cumulative_throughput, b.cumulative_throughput);
        assert_eq!(a.per_node_cpu, b.per_node_cpu);
    }

    #[test]
    fn empty_fault_plan_matches_baseline() {
        let params = ClusterParams::scaling_job(neptune_profile(), 20, 20);
        let base = simulate_cluster(&params);
        let faulted = simulate_cluster_with_faults(&params, &neptune_link::FaultPlan::new(7), 100);
        assert_eq!(base.cumulative_throughput, faulted.cumulative_throughput);
        assert_eq!(base.per_node_cpu, faulted.per_node_cpu);
        assert_eq!(base.per_node_mem, faulted.per_node_mem);
    }

    #[test]
    fn killed_nodes_degrade_but_do_not_zero_throughput() {
        use neptune_link::FaultEvent;
        // Saturated regime (jobs >> nodes) so pooled node CPU — not the
        // per-instance core cap — is the binding resource; losing nodes
        // then visibly shrinks cluster capacity.
        let params = ClusterParams::scaling_job(neptune_profile(), 20, 50);
        let mut plan = neptune_link::FaultPlan::new(42);
        for node in [0usize, 5, 11, 17] {
            plan = plan.with_event(FaultEvent::KillNode { node, at_step: 10 });
        }
        let before = simulate_cluster_with_faults(&params, &plan, 9);
        let after = simulate_cluster_with_faults(&params, &plan, 10);
        let base = simulate_cluster(&params);
        // Before the kill step the plan is inert.
        assert_eq!(before.cumulative_throughput, base.cumulative_throughput);
        // After it, the survivors absorb the displaced instances: lower
        // cumulative rate, but every job still makes progress.
        assert!(
            after.cumulative_throughput < base.cumulative_throughput,
            "after {:.4e} vs base {:.4e}",
            after.cumulative_throughput,
            base.cumulative_throughput
        );
        assert!(after.per_job_throughput.iter().all(|&r| r > 0.0));
        // Dead nodes are idle in the report.
        for m in [0usize, 5, 11, 17] {
            assert_eq!(after.per_node_cpu[m], 0.0, "node {m} should be dead");
            assert_eq!(after.per_node_mem[m], 0.0, "node {m} should be dead");
        }
    }

    #[test]
    fn faulted_simulation_is_deterministic() {
        use neptune_link::FaultEvent;
        let params = ClusterParams::scaling_job(neptune_profile(), 16, 16);
        let plan = neptune_link::FaultPlan::new(3)
            .with_event(FaultEvent::KillNode { node: 2, at_step: 0 })
            .with_event(FaultEvent::KillNode { node: 9, at_step: 0 });
        let a = simulate_cluster_with_faults(&params, &plan, 0);
        let b = simulate_cluster_with_faults(&params, &plan, 0);
        assert_eq!(a.cumulative_throughput, b.cumulative_throughput);
        assert_eq!(a.per_job_throughput, b.per_job_throughput);
        assert_eq!(a.per_node_cpu, b.per_node_cpu);
    }
}
