#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "condor/startd.hpp"
#include "condor/types.hpp"

namespace sf::condor {

/// A complete HTCondor pool: schedd (job queue + serialized dispatch),
/// negotiator (periodic matchmaking producing reusable claims), one
/// partitionable startd per worker, and the shadow/starter file-staging
/// path.
///
/// The performance-relevant behaviours are modelled explicitly:
///  * matchmaking happens in cycles (negotiation_interval_s),
///  * once a slot is claimed it is reused for subsequent jobs without
///    re-negotiation (claim reuse — what makes condor's sustained
///    throughput far better than its cycle period),
///  * job activations are serialized at the schedd
///    (dispatch_interval_s per job — Figure 2's slope),
///  * every job pays stage-in/stage-out transfers between the submit
///    node's staging volume and the worker scratch.
class CondorPool {
 public:
  CondorPool(cluster::Cluster& cluster, cluster::Node& submit_node,
             std::vector<cluster::Node*> workers, CondorConfig config = {});

  CondorPool(const CondorPool&) = delete;
  CondorPool& operator=(const CondorPool&) = delete;

  // ---- Schedd API ------------------------------------------------------

  JobId submit(JobSpec spec);

  /// Removes an idle job from the queue (condor_rm). Running jobs are not
  /// interruptible in this model; returns false for them.
  bool remove(JobId id);

  [[nodiscard]] const JobRecord* job(JobId id) const;

  [[nodiscard]] std::size_t idle_jobs() const;
  [[nodiscard]] std::size_t running_jobs() const;
  [[nodiscard]] std::uint64_t completed_jobs() const { return completed_; }
  [[nodiscard]] std::uint64_t failed_jobs() const { return failed_; }
  /// Running jobs failed by the schedd because their worker crashed
  /// (counted inside failed_jobs() as well).
  [[nodiscard]] std::uint64_t jobs_aborted() const { return aborted_; }
  [[nodiscard]] std::uint64_t negotiation_cycles() const { return cycles_; }
  [[nodiscard]] std::size_t active_claims() const { return claims_.size(); }

  /// Internal-consistency audit for the invariant registry (sf::check):
  /// state tallies match the counters, the idle queue holds exactly the
  /// idle jobs, every claim sits on a live reachable-shaped startd, busy
  /// claims point at running jobs, and per-node claimed resources agree
  /// with the startd's dynamic slots. Returns one message per violation
  /// (empty = clean). Pure read; never schedules or mutates.
  [[nodiscard]] std::vector<std::string> self_check() const;

  /// TEST-ONLY mutation hook: when set, handle_node_crash() keeps the dead
  /// node's claims (and skips the startd reset) while still aborting the
  /// victim jobs — a planted claim-release bug the invariant registry must
  /// catch (tests/check/mutation_test.cpp). Never set outside tests.
  void test_only_keep_claims_on_crash(bool keep) {
    test_keep_claims_on_crash_ = keep;
  }

  // ---- Topology --------------------------------------------------------

  [[nodiscard]] cluster::Node& submit_node() { return submit_; }
  [[nodiscard]] storage::Volume& submit_staging() { return staging_; }
  [[nodiscard]] Startd& startd(const std::string& node_name);
  [[nodiscard]] std::size_t worker_count() const { return startds_.size(); }
  [[nodiscard]] const std::vector<std::string>& worker_names() const {
    return worker_order_;
  }
  [[nodiscard]] const CondorConfig& config() const { return config_; }
  [[nodiscard]] sim::Simulation& sim() { return cluster_.sim(); }
  [[nodiscard]] cluster::Cluster& cluster() { return cluster_; }

 private:
  using ClaimId = std::uint64_t;
  struct Claim {
    std::string node_name;
    Startd* startd = nullptr;  ///< cached owner; avoids name lookups in
                               ///< the match loops
    SlotId slot = 0;
    double cpus = 0;
    double memory = 0;
    bool busy = false;
    /// Job currently activated on this claim (kNoJob when idle) — lets the
    /// crash handler find the victims bound to a dead node.
    JobId job = kNoJob;
    std::uint64_t idle_epoch = 0;
    /// Greedy-match scratch: the claim is reserved in the match pass whose
    /// stamp equals the pool's current one (no per-cycle set allocations).
    std::uint64_t reserved_stamp = 0;
  };

  void kick_negotiator();
  void negotiate();
  void pump_dispatch();
  void start_job(JobId id, ClaimId claim_id, std::uint64_t epoch);
  void run_executable(JobId id, ClaimId claim_id, std::uint64_t epoch);
  void finish_job(JobId id, ClaimId claim_id, std::uint64_t epoch, bool ok);
  void arm_claim_timeout(ClaimId claim_id);
  /// True while `id` is still the running attempt `epoch` — the guard every
  /// dispatched continuation passes before touching jobs_/claims_.
  [[nodiscard]] bool attempt_live(JobId id, std::uint64_t epoch) const;
  /// Fails a running job (worker died under it): bumps the attempt epoch so
  /// in-flight continuations die, updates counters, fires on_done so DAGMan
  /// can retry.
  void abort_job(JobId id);
  /// Startd death: drops the node's claims, resets its startd, aborts the
  /// jobs that were running there, and kicks scheduling for the requeues.
  void handle_node_crash(const std::string& node_name);
  /// True when at least one idle job cannot be greedily matched (priority
  /// order) against the free claims; early-exits on the first miss.
  [[nodiscard]] bool has_unmatched_idle();
  /// One greedy matching pass over the idle queue. `stamp` is fresh, so no
  /// claim starts reserved. For requirement-free jobs, `resume` remembers
  /// per (request_cpus, request_memory) the free ClaimId the last search of
  /// that shape stopped at (kExhausted once it found none): every free
  /// claim up to it is reserved in this pass or does not fit the shape,
  /// because neither reservations nor fits are undone within a pass.
  struct MatchPass {
    std::uint64_t stamp = 0;
    std::map<std::pair<double, double>, ClaimId> resume;
  };
  static constexpr ClaimId kNoClaim = 0;
  static constexpr ClaimId kExhausted = ~ClaimId{0};
  [[nodiscard]] MatchPass begin_pass() { return {++match_stamp_, {}}; }
  /// The lowest-id free claim that `spec` fits and `pass` has not reserved,
  /// now reserved; kNoClaim when there is none. Jobs with `requirements`
  /// scan every free claim; the rest resume at their shape's cursor.
  ClaimId first_fit(const JobSpec& spec, MatchPass& pass);
  [[nodiscard]] bool claim_fits(const Claim& claim,
                                const JobSpec& spec) const;
  /// Marks a claim busy or free, keeping free_claims_ in step.
  void set_busy(ClaimId id, Claim& claim, bool busy);
  /// True while the schedd (submit node) can reach `node` over the flow
  /// network. A rack cut makes a healthy startd unmatchable and its idle
  /// claims unusable; the negotiator re-polls via kick_negotiator, so the
  /// pool picks the workers back up as soon as the cut heals.
  [[nodiscard]] bool reachable(const cluster::Node& node) const;
  /// Inserts into idle_queue_ keeping (priority desc, submission order).
  void enqueue_idle(JobId id);

  cluster::Cluster& cluster_;
  cluster::Node& submit_;
  storage::Volume staging_;
  CondorConfig config_;
  std::map<std::string, std::unique_ptr<Startd>> startds_;
  std::vector<std::string> worker_order_;  // negotiation fill order
  std::vector<Startd*> worker_startds_;    // startds in worker_order_

  std::map<JobId, JobRecord> jobs_;
  /// Idle jobs, maintained in dispatch order (priority desc, FIFO within
  /// a priority) — the order the former copy+stable_sort produced on
  /// every negotiation/dispatch pass.
  std::vector<JobId> idle_queue_;
  std::map<ClaimId, Claim> claims_;
  /// Free claims, keyed (and so walked) in ClaimId order. Busy claims are
  /// never here: when every claim is busy, pump_dispatch() returns at once
  /// and has_unmatched_idle() fails its first job without a scan.
  std::map<ClaimId, Claim*> free_claims_;
  std::uint64_t match_stamp_ = 0;
  JobId next_job_ = 1;
  ClaimId next_claim_ = 1;
  bool negotiator_armed_ = false;
  bool dispatch_busy_ = false;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t aborted_ = 0;
  std::uint64_t cycles_ = 0;
  std::size_t running_ = 0;
  bool test_keep_claims_on_crash_ = false;
};

}  // namespace sf::condor
