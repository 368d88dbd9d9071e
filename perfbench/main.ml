(* The repository benchmark: three workloads, one single-domain process.

   Usage: main.exe --workload (kv-read-zipf|kv-write-byz|fuzz) --seed N
                   --seconds S --trace (0|1)

   The program is driven only through its public functions and timed
   from outside.  A run repeats whole, identical rounds of its workload
   until [--seconds] have elapsed (and at least [timing_rounds] times);
   wall-clock figures are taken from the fastest of those rounds, chunk by
   chunk, while every count comes from the first round and repeats
   exactly.  The last line on stdout is one JSON object: [correct],
   [attempted], [failed] and [metrics] (the end-to-end metrics with
   --trace 0, the per-layer metrics with --trace 1).  Progress and a
   span table go to stderr.  See README.md for the workloads' make-up
   and for which layer metric should move which end-to-end metric. *)

module Engine = Sbft_sim.Engine
module Metrics = Sbft_sim.Metrics
module Names = Sbft_sim.Metric_names
module Profile = Sbft_sim.Profile
module Trace = Sbft_sim.Trace
module Coverage = Sbft_sim.Coverage
module History = Sbft_spec.History
module Regularity = Sbft_spec.Regularity
module System = Sbft_core.System
module Store = Sbft_kv.Store
module Loadgen = Sbft_harness.Loadgen
module Fuzz = Sbft_harness.Fuzz
module Scenario = Sbft_harness.Scenario
module Stabilization = Sbft_harness.Stabilization
module Clock = Sbft_harness.Clock

(* ---- correctness bookkeeping ---------------------------------------- *)

let errors = ref []

let expect ok msg = if not ok then errors := msg :: !errors

(* ---- spans ----------------------------------------------------------- *)

(* The benchmark's own spans around each public call it makes: name,
   enclosing span, start and end.  Kept in memory; the traced run prints
   their totals and self times (duration minus enclosed spans). *)
type span = { name : string; parent : string; start_ns : int64; stop_ns : int64 }

let spans = ref []
let open_spans = ref []

let timed name f =
  let parent = match !open_spans with p :: _ -> p | [] -> "" in
  open_spans := name :: !open_spans;
  let start_ns = Clock.now_ns () in
  let close () =
    let stop_ns = Clock.now_ns () in
    open_spans := List.tl !open_spans;
    spans := { name; parent; start_ns; stop_ns } :: !spans;
    Int64.to_float (Int64.sub stop_ns start_ns) *. 1e-9
  in
  match f () with
  | v -> (v, close ())
  | exception e ->
      ignore (close ());
      raise e

let print_spans () =
  let dur s = Int64.to_float (Int64.sub s.stop_ns s.start_ns) *. 1e-6 in
  let names = List.sort_uniq compare (List.map (fun s -> s.name) !spans) in
  Printf.eprintf "%-24s %6s %12s %12s\n" "span" "count" "total_ms" "self_ms";
  List.iter
    (fun name ->
      let mine = List.filter (fun s -> s.name = name) !spans in
      let total = List.fold_left (fun acc s -> acc +. dur s) 0.0 mine in
      let children =
        List.fold_left (fun acc s -> if s.parent = name then acc +. dur s else acc) 0.0 !spans
      in
      Printf.eprintf "%-24s %6d %12.1f %12.1f\n" name (List.length mine) total (total -. children))
    names

(* ---- chunk clock --------------------------------------------------------- *)

(* Stamps of the monotonic clock at deterministic points of a round's
   work (every 1000th kv completion, every fuzz log line), kept in a
   preallocated buffer so stamping allocates nothing. *)
type stamps = { at : float array; mutable n : int }

let stamps cap = { at = Array.make cap 0.0; n = 0 }

let stamp s =
  if s.n < Array.length s.at then begin
    s.at.(s.n) <- Int64.to_float (Clock.now_ns ());
    s.n <- s.n + 1
  end

let chunk_times s = Array.init (max 0 (s.n - 1)) (fun i -> (s.at.(i + 1) -. s.at.(i)) *. 1e-9)

(* On a shared host, contention comes and goes in stretches of seconds,
   so one round's wall time mixes slow and fast stretches at random.
   Each chunk is the same work in every round of a run: its fastest time
   over the rounds is its cost on an uncontended core, and the sum over
   chunks is the round's. *)
let best_time rounds =
  match rounds with
  | [] -> nan
  | first :: _ ->
      let n = Array.length first in
      if List.exists (fun c -> Array.length c <> n) rounds then begin
        expect false "rounds were cut into different chunks";
        nan
      end
      else
        let total = ref 0.0 in
        for i = 0 to n - 1 do
          total := !total +. List.fold_left (fun m c -> Float.min m c.(i)) infinity rounds
        done;
        !total

(* ---- small helpers ---------------------------------------------------- *)

let ratio a b = if b = 0.0 then 0.0 else a /. b
let fi = float_of_int

let msg_kinds =
  [ "get_ts"; "ts_reply"; "write_req"; "write_ack"; "read_req"; "reply"; "complete_read"; "flush";
    "flush_ack" ]

(* Counter deltas of an engine's metrics between two snapshots. *)
let counter_delta before after name =
  let get l = Option.value ~default:0 (List.assoc_opt name l) in
  get after - get before

let kind_counter k = Names.net_sent_kind_prefix ^ k

let layer_counters =
  Names.net_sent :: Names.client_write_retries :: Names.server_label_adoptions
  :: Names.server_label_rejections :: List.map kind_counter msg_kinds

(* Exact nearest-rank percentiles of virtual-tick samples. *)
let tick_percentiles samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  if Array.length a = 0 then (0, 0) else (Checks.percentile a 0.5, Checks.percentile a 0.999)

(* The audit anchor of a register's history: the first completed write's
   response, where pseudo-stabilization's correct suffix starts. *)
let first_write_completion h =
  List.fold_left
    (fun acc -> function History.Write { resp = Some r; _ } -> min acc r | _ -> acc)
    max_int (History.ops h)

(* ---- kv workloads ------------------------------------------------------ *)

type kv_workload = { keys : int; zipf : float; write_ratio : float; byzantine : bool }

let kv_read_zipf = { keys = 4096; zipf = 0.99; write_ratio = 0.05; byzantine = false }
let kv_write_byz = { keys = 256; zipf = 0.0; write_ratio = 0.5; byzantine = true }

let shards = 16
let replicas = 6
let faulty = 1
let clients = 32
let rate = 0.6
let duration = 100_000
let window = 50
let value_base = 1_000_000
let probe_base = 2_000_000
let chunk_ops = 1000
let preload_chunks = 16

type kv_round = {
  setup_chunks : float array;  (* wall time of the set-up's stretches *)
  timed_s : float;
  chunks : float array;  (* wall time of each 1000 completions *)
  offered : int;
  completed : int;
  puts : int;
  failed : int;
  words : float;
  preload_words : float;
  events : int;
  deltas : (string * int) list;  (* layer counters over the timed phase *)
  minor_gcs : int;
  major_gcs : int;
  p50 : int;
  p999 : int;
  peak_inflight : int;
  peak_queue : int;
  registers : int;
  keys_hit : int;
  audit_s : float;
  audited_reads : int;
  profile : Profile.report option;
}

let kv_spec w =
  {
    Loadgen.mode = Loadgen.Open_loop (Loadgen.Poisson rate);
    duration;
    ops = None;
    write_ratio = w.write_ratio;
    keys = w.keys;
    zipf_s = w.zipf;
    value_base;
    max_queue = 1024;
  }

(* Set-up is cut into stretches like the timed phase: the store build,
   then every [keys / preload_chunks] preload completions, then the rest
   of the preload and the detector attach. *)
let kv_setup w ~seed ~level ~series =
  Gc.compact ();
  let keys = Array.init w.keys (Printf.sprintf "key-%d") in
  let clock = stamps (preload_chunks + 3) in
  let preloaded = ref 0 in
  let on_preload () =
    incr preloaded;
    if !preloaded mod (w.keys / preload_chunks) = 0 then stamp clock
  in
  let store, regs, stab, preload_words =
    fst
      (timed "kv.setup" (fun () ->
          stamp clock;
          let store =
            Store.create ~seed ~delay:(Sbft_channel.Delay.uniform ~max:10) ~trace_level:level
              ?series_window:(if series then Some window else None)
              ~shards ~n:replicas ~f:faulty ~clients ()
          in
          let regs = ref [] in
          for shard = 0 to shards - 1 do
            Store.apply_to_shard store ~shard (fun sys -> regs := sys :: !regs);
            if w.byzantine then
              Store.apply_to_shard store ~shard (fun sys ->
                  ignore (Sbft_byz.Strategy.install_all sys Sbft_byz.Strategies.equivocate))
          done;
          stamp clock;
          let w0 = Gc.minor_words () in
          Array.iteri
            (fun i key ->
              Store.put store ~client:(i mod clients) ~key ~value:(i + 1) ~k:on_preload ())
            keys;
          Store.quiesce store;
          let preload_words = Gc.minor_words () -. w0 in
          let stab = Stabilization.attach ~window ~after:0 store in
          stamp clock;
          (store, regs, stab, preload_words)))
  in
  expect (!preloaded = w.keys) "kv: a preload put did not complete";
  (keys, store, regs, stab, preload_words, chunk_times clock)

let kv_round w ~seed ~level ~series ~profile ~full_checks =
  let keys, store, regs, stab, preload_words, setup_chunks = kv_setup w ~seed ~level ~series in
  let engine = Store.engine store in
  let m = Engine.metrics engine in
  (* Service ticks land in a preallocated buffer, so the benchmark's own
     observer adds no allocation to the timed phase. *)
  let ticks = Array.make ((2 * int_of_float (rate *. fi duration)) + 1024) 0 in
  let seen = ref 0 and recording = ref true in
  let clock = stamps ((Array.length ticks / chunk_ops) + 2) in
  Store.add_observer store (fun ~shard:_ ~time:_ ~ok:_ ~ticks:t ->
      if !recording then begin
        if !seen < Array.length ticks then ticks.(!seen) <- t;
        incr seen;
        if !seen mod chunk_ops = 0 then stamp clock
      end);
  let t_start = Engine.now engine in
  let ops0 = Store.ops_issued store in
  let c0 = Metrics.counters m in
  let ev0 = Engine.events_fired engine in
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  if profile then Profile.enable (Engine.profile engine);
  stamp clock;
  let o, timed_s = timed "kv.loadgen" (fun () -> Loadgen.run ~spec:(kv_spec w) store) in
  stamp clock;
  let words = Gc.minor_words () -. w0 in
  let g1 = Gc.quick_stat () in
  let prof = if profile then Some (Profile.report (Engine.profile engine)) else None in
  recording := false;
  let events = Engine.events_fired engine - ev0 in
  let c1 = Metrics.counters m in
  (* accounting *)
  let sum f = Array.fold_left (fun acc s -> acc + f s) 0 o.per_shard in
  expect (o.offered = o.accepted + o.rejected) "kv: offered <> accepted + rejected";
  expect
    (sum (fun s -> s.Loadgen.s_offered) = o.offered
    && sum (fun s -> s.s_accepted) = o.accepted
    && sum (fun s -> s.s_rejected) = o.rejected
    && sum (fun s -> s.s_completed) = o.completed
    && sum (fun s -> s.s_aborted) = o.aborted)
    "kv: per-shard counts do not sum to the fleet totals";
  expect (!seen = o.completed) "kv: observer-seen completions <> completed";
  expect (o.completed_puts + o.completed_gets = o.completed) "kv: puts + gets <> completed";
  expect (o.accepted = o.completed + o.incomplete) "kv: an accepted op neither completed nor failed";
  expect (Store.ops_issued store - ops0 = o.accepted) "kv: ops issued <> ops accepted";
  expect (not o.livelocked) "kv: event budget exhausted";
  (* arrivals and mix, against the processes' own distributions *)
  expect (Checks.poisson_count_ok ~rate ~duration o.offered)
    (Printf.sprintf "kv: %d arrivals is beyond 5 sd of Poisson(%g x %d)" o.offered rate duration);
  expect
    (Checks.share_ok ~p:w.write_ratio ~n:o.completed o.completed_puts)
    (Printf.sprintf "kv: %d puts of %d is beyond 5 sd of the %g mix" o.completed_puts o.completed
       w.write_ratio);
  Stabilization.finalize stab ~now:(Engine.now engine);
  expect
    (Stabilization.stabilized_shards stab = shards)
    "kv: a fault-free shard was not declared stabilized";
  let p50, p999 =
    tick_percentiles (Array.to_list (Array.sub ticks 0 (min !seen (Array.length ticks))))
  in
  let histories () = List.map System.history !regs in
  let keys_hit =
    List.length
      (List.filter
         (fun h ->
           List.exists
             (function History.Write { inv; _ } | History.Read { inv; _ } -> inv >= t_start)
             (History.ops h))
         (histories ()))
  in
  let registers = List.length (Store.keys_touched store) in
  expect (registers = w.keys && List.length !regs = w.keys) "kv: register count <> key count";
  (* The output checks below run on a run's first round; every later
     round is held to the first one's counts instead. *)
  let (audited_reads, violations), audit_s =
    if full_checks then begin
      (* every key: a fresh unique put, then a get from another client *)
      let probe_bad =
        fst
          (timed "kv.probe" (fun () ->
               Checks.probe store ~keys
                 ~write:(fun i -> probe_base + i)
                 ~expect:(fun i -> probe_base + i)))
      in
      expect (probe_bad = 0) (Printf.sprintf "kv: %d keys did not read back their fresh put" probe_bad);
      timed "kv.check_regular" (fun () -> Store.check_regular store)
    end
    else ((0, 0), 0.0)
  in
  expect (violations = 0) (Printf.sprintf "kv: Store.check_regular reports %d violations" violations);
  if full_checks then
    ignore
      (timed "kv.own_audit" (fun () ->
           List.iter
             (fun h ->
               let after = first_write_completion h in
               expect
                 (Checks.realtime_violations ~after h = [])
                 "kv: a read breaks real-time regularity";
               expect
                 (Checks.reversed_isolated_pairs ~after ~ts_prec:Sbft_labels.Mw_ts.prec h = [])
                 "kv: isolated consecutive writes with reversed timestamps")
             (histories ())));
  {
    setup_chunks;
    timed_s;
    chunks = chunk_times clock;
    offered = o.offered;
    completed = o.completed;
    puts = o.completed_puts;
    failed = o.rejected + o.aborted + o.incomplete;
    words;
    preload_words;
    events;
    deltas = List.map (fun n -> (n, counter_delta c0 c1 n)) layer_counters;
    minor_gcs = g1.minor_collections - g0.minor_collections;
    major_gcs = g1.major_collections - g0.major_collections;
    p50;
    p999;
    peak_inflight = o.peak_inflight;
    peak_queue = o.peak_queue;
    registers;
    keys_hit;
    audit_s;
    audited_reads;
    profile = prof;
  }

(* Trace level, series and profiler never change the simulation; nor does
   repeating a round.  Hold every round to the first one's counts. *)
let same_simulation (a : kv_round) (b : kv_round) =
  a.offered = b.offered && a.completed = b.completed && a.events = b.events
  && a.p50 = b.p50 && a.p999 = b.p999 && a.deltas = b.deltas

let delta r name = fi (List.assoc name r.deltas)

(* ---- fuzz workload -------------------------------------------------------- *)

(* The campaign of [sbftreg fuzz --seed 3]: its base scenario is that
   command's (n=6, f=1, 3 clients, 12 ops each, write ratio 0.3). *)
let fuzz_base = { Scenario.default with clients = 3; ops_per_client = 12 }
let fuzz_seed = 3L
let fuzz_steps = 1000
let fuzz_max_events = 4_000_000 (* Fuzz.run's per-execution bound *)
let setup_reps = 50

type campaign = {
  report : Fuzz.report;
  wall_s : float;
  c_chunks : float array;  (* wall time between the campaign's log lines *)
  c_words : float;
  c_minor : int;
  c_major : int;
}

let campaign ?on_retain ~steps () =
  Gc.compact ();
  Gc.minor ();
  let g0 = Gc.quick_stat () in
  let w0 = Gc.minor_words () in
  (* The campaign logs at most a coverage line and a finding line per
     step, at the same steps in every round. *)
  let clock = stamps ((2 * steps) + 4) in
  stamp clock;
  let report, wall_s =
    timed "fuzz.campaign" (fun () ->
        Fuzz.run ~base:fuzz_base ~iterations:steps ~max_findings:max_int
          ~log:(fun _ -> stamp clock)
          ?on_retain ~seed:fuzz_seed ())
  in
  stamp clock;
  let c_words = Gc.minor_words () -. w0 in
  let g1 = Gc.quick_stat () in
  {
    report;
    wall_s;
    c_chunks = chunk_times clock;
    c_words;
    c_minor = g1.minor_collections - g0.minor_collections;
    c_major = g1.major_collections - g0.major_collections;
  }

(* Totals over re-executing a set of scenarios alone through
   Scenario.execute. *)
type replay = {
  schedules : int;
  exec_s : float;
  check_s : float;
  r_words : float;
  r_events : int;
  r_counters : (string * int) list;
  checked_reads : int;
  writes_done : int;
  latencies : int list;
  phase_s : (string * float) list;
  prof_wall_s : float;
}

let replay ?(level = Trace.On) ?(profile = false) ~verify scenarios =
  let cov = Coverage.create () in
  let sink ~time:(_ : int) ev = Coverage.observe cov ev in
  let acc =
    ref
      {
        schedules = 0;
        exec_s = 0.0;
        check_s = 0.0;
        r_words = 0.0;
        r_events = 0;
        r_counters = List.map (fun n -> (n, 0)) layer_counters;
        checked_reads = 0;
        writes_done = 0;
        latencies = [];
        phase_s = [];
        prof_wall_s = 0.0;
      }
  in
  List.iter
    (fun (s, verdict) ->
      Coverage.reset cov;
      let w0 = Gc.minor_words () in
      let res, dt =
        timed "scenario.execute" (fun () ->
            Scenario.execute ~sink ~level ~profile ~collect_events:false ~max_events:fuzz_max_events s)
      in
      let words = Gc.minor_words () -. w0 in
      match res with
      | Error e -> expect false ("fuzz: a retained scenario does not execute: " ^ e)
      | Ok run ->
          let h = System.history run.sys in
          let engine = System.engine run.sys in
          let _, check_dt =
            timed "regularity.check" (fun () ->
                Regularity.check ~after:run.after ~ts_prec:Sbft_labels.Mw_ts.prec h)
          in
          if verify then begin
            (match verdict with
            | Some v ->
                expect
                  (Scenario.verdict_of_run run = v)
                  "fuzz: a finding re-executed alone gives another verdict"
            | None -> ());
            let program =
              List.filter_map
                (fun (v : Regularity.violation) ->
                  match v.kind with
                  | `Stale -> Some (v.read_id, "stale")
                  | `Future -> Some (v.read_id, "future")
                  | `Unwritten -> Some (v.read_id, "unwritten")
                  | `Inversion _ | `Order -> None)
                run.report.violations
              |> List.sort_uniq compare
            in
            let mine =
              Checks.realtime_violations ~after:run.after h
              |> List.map (fun (id, k) -> (id, Checks.kind_name k))
              |> List.sort_uniq compare
            in
            expect (program = mine)
              (Printf.sprintf "fuzz: seed %Ld: real-time check disagrees with the program's report"
                 s.Scenario.seed);
            if Scenario.verdict_of_run run = Scenario.Violation "order" then
              expect
                (Checks.reversed_isolated_pairs ~after:run.after ~ts_prec:Sbft_labels.Mw_ts.prec h
                <> [])
                "fuzz: an order finding has no reversed isolated write pair"
          end;
          let counters = Metrics.counters (Engine.metrics engine) in
          let wl, rl = run.reg.op_latencies () in
          let lat = Array.fold_left (fun l x -> int_of_float x :: l) !acc.latencies wl in
          let lat = Array.fold_left (fun l x -> int_of_float x :: l) lat rl in
          let a = !acc in
          let phase_s, prof_wall_s =
            if profile then
              let r = Profile.report (Engine.profile engine) in
              ( List.map
                  (fun (label, _, s) ->
                    (label, s +. Option.value ~default:0.0 (List.assoc_opt label a.phase_s)))
                  r.phase_rows,
                a.prof_wall_s +. r.wall_s )
            else (a.phase_s, a.prof_wall_s)
          in
          acc :=
            {
              schedules = a.schedules + 1;
              exec_s = a.exec_s +. dt;
              check_s = a.check_s +. check_dt;
              r_words = a.r_words +. words;
              r_events = a.r_events + Engine.events_fired engine;
              r_counters =
                List.map (fun (n, c) -> (n, c + counter_delta [] counters n)) a.r_counters;
              checked_reads = a.checked_reads + run.report.checked_reads;
              writes_done = a.writes_done + run.reg.completed_writes ();
              latencies = lat;
              phase_s;
              prof_wall_s;
            })
    scenarios;
  !acc

(* Every schedule a campaign executed, in order, rebuilt from its draws:
   the parent choice of [Fuzz.run] (the base one time in ten, else a
   corpus entry, newest-first index) and [Fuzz.mutate].  A mutant joins
   the corpus when it equals the next scenario the campaign passed to
   [on_retain] ([retained], oldest first): equal scenarios reach equal
   coverage, so only the first of them can be retained.  [None] unless
   the rebuilt corpus is exactly the campaign's, so a change to the
   campaign's draws cannot go unnoticed. *)
let campaign_schedules (r : Fuzz.report) ~retained =
  let rng = Sbft_sim.Rng.create fuzz_seed in
  match retained with
  | [] -> None
  | first :: pending ->
      let pending = ref pending in
      let corpus = ref [| first |] and len = ref 1 in
      let schedules = ref [ first ] in
      for _ = 1 to r.executed - 1 do
        let parent =
          if Sbft_sim.Rng.chance rng 0.1 then fuzz_base
          else !corpus.(!len - 1 - Sbft_sim.Rng.int rng !len)
        in
        let s = Fuzz.mutate rng parent in
        schedules := s :: !schedules;
        match !pending with
        | next :: rest when next = s ->
            pending := rest;
            if !len = Array.length !corpus then corpus := Array.append !corpus !corpus;
            !corpus.(!len) <- s;
            incr len
        | _ -> ()
      done;
      if first = fuzz_base && Array.to_list (Array.sub !corpus 0 !len) = r.corpus then
        Some (List.rev !schedules)
      else None

(* Wall time to execute [schedules] as a campaign executes them, and
   nothing else. *)
let execute_alone schedules =
  let cov = Coverage.create () in
  let sink ~time:(_ : int) ev = Coverage.observe cov ev in
  Gc.compact ();
  snd
    (timed "fuzz.execute_alone" (fun () ->
         List.iter
           (fun s ->
             Coverage.reset cov;
             ignore
               (Scenario.execute ~sink ~collect_events:false ~max_events:fuzz_max_events s
                 : (Scenario.run, string) result))
           schedules))

let audit_set (r : Fuzz.report) =
  List.map (fun (f : Fuzz.finding) -> (f.scenario, Some f.verdict)) r.findings
  @ List.map (fun s -> (s, None)) r.corpus

let check_campaign (r : Fuzz.report) ~steps =
  expect (r.executed = steps + 1) "fuzz: executed <> steps + 1";
  expect (r.skipped = 0) "fuzz: skipped schedules";
  expect (r.stopped_by = `Iterations) "fuzz: the campaign stopped early"

let same_campaign (a : Fuzz.report) (b : Fuzz.report) =
  a.executed = b.executed && a.coverage = b.coverage
  && List.length a.corpus = List.length b.corpus
  && List.map (fun (f : Fuzz.finding) -> (f.step, f.verdict)) a.findings
     = List.map (fun (f : Fuzz.finding) -> (f.step, f.verdict)) b.findings

(* ---- output ----------------------------------------------------------------- *)

let json_number name v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else begin
    expect false (name ^ " is not a finite number");
    "0"
  end

let emit ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.eprintf "  %-42s %16.6f %s\n" name v unit) metrics;
  List.iter (fun e -> Printf.eprintf "CHECK FAILED: %s\n" e) (List.rev !errors);
  let body =
    String.concat ", "
      (List.map
         (fun (name, v, unit) ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number name v) unit)
         metrics)
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (!errors = []) attempted failed body

(* Wall metrics are minima over the first [timing_rounds] rounds of a
   run, whatever the speed of the code: a minimum over more rounds would
   reach further into the fast tail, favouring faster code beyond its
   cost.  About ten rounds of every workload fit 30 s on the 2-core
   reference host. *)
let timing_rounds = 8

let timing rounds = List.filteri (fun i _ -> i < timing_rounds) rounds

(* Further rounds until [seconds] have passed since [t0] and the run
   holds at least [timing_rounds] rounds, [first] included. *)
let more_rounds ~t0 ~seconds next =
  let rest = ref [] and n = ref 1 in
  while Clock.elapsed_s t0 < fi seconds || !n < timing_rounds do
    rest := next () :: !rest;
    incr n
  done;
  List.rev !rest

let heap_top () = fi (Gc.quick_stat ()).top_heap_words

(* The per-layer metrics that the other kind of workload does not
   exercise read 0 there. *)
let one_sided_layers =
  [ ("kv.store.registers", "count"); ("kv.store.preload_words_per_key", "words");
    ("harness.loadgen.peak_inflight", "count"); ("harness.loadgen.peak_queue", "count");
    ("sim.series.overhead_pct", "%"); ("harness.scenario.execute_us", "us");
    ("harness.fuzz.corpus_size", "count"); ("harness.fuzz.bookkeeping_share", "share") ]

let fill_layers metrics =
  metrics
  @ List.filter_map
      (fun (name, unit) ->
        if List.exists (fun (n, _, _) -> n = name) metrics then None else Some (name, 0.0, unit))
      one_sided_layers

let profile_metrics ~phase_s ~wall_s ~per =
  let share = ratio (wall_s -. Option.value ~default:0.0 (List.assoc_opt "other" phase_s)) wall_s in
  List.map
    (fun (label, s) ->
      (Printf.sprintf "profile.%s_us_per_op" label, ratio (s *. 1e6) per, "us"))
    phase_s
  @ [ ("profile.attributed_share", share, "share") ]

(* Network sends per op by message kind, and client and server label
   work per completed write, from the engine's counters. *)
let protocol_metrics ~counter ~per ~puts =
  List.map
    (fun k ->
      (Printf.sprintf "channel.network.sent.%s_per_op" k, ratio (counter (kind_counter k)) per, "msgs"))
    msg_kinds
  @ List.map
      (fun (name, c) -> (name, ratio (counter c) puts, "count"))
      [
        ("core.client.write_retries_per_put", Names.client_write_retries);
        ("core.server.label_adoptions_per_put", Names.server_label_adoptions);
        ("core.server.label_rejections_per_put", Names.server_label_rejections);
      ]

let kv_main w ~seed ~seconds ~trace =
  let seed = Int64.of_int seed in
  let round ?(level = Trace.Off) ?(series = true) ?(profile = false) ~full_checks () =
    fst (timed "kv.round" (fun () -> kv_round w ~seed ~level ~series ~profile ~full_checks))
  in
  let t0 = Clock.now_ns () in
  let first = round ~full_checks:true () in
  let heap = heap_top () in
  let hold r =
    expect (same_simulation first r) "kv: a repeated round diverged from the first";
    r
  in
  let ops r = fi r.completed in
  if not trace then begin
    let rounds = first :: more_rounds ~t0 ~seconds (fun () -> hold (round ~full_checks:false ())) in
    Printf.eprintf "kv: %d rounds\n" (List.length rounds);
    print_spans ();
    emit
      ~attempted:(List.fold_left (fun a r -> a + r.offered) 0 rounds)
      ~failed:(List.fold_left (fun a r -> a + r.failed) 0 rounds)
      [
        ("setup_s", best_time (List.map (fun r -> r.setup_chunks) (timing rounds)), "s");
        ("ops_per_s", ops first /. best_time (List.map (fun r -> r.chunks) (timing rounds)), "ops/s");
        ("words_per_op", first.words /. ops first, "words");
        ("msgs_per_op", delta first Names.net_sent /. ops first, "msgs");
        ("service_ticks_p50", fi first.p50, "ticks");
        ("service_ticks_p999", fi first.p999, "ticks");
        ("heap_top_words", heap, "words");
        ("coverage_keys", fi first.keys_hit, "count");
      ]
  end
  else begin
    let no_series = hold (round ~series:false ~full_checks:false ()) in
    let sampled = hold (round ~level:Trace.Sampled ~full_checks:false ()) in
    let on = hold (round ~level:Trace.On ~full_checks:false ()) in
    let profiled = hold (round ~level:Trace.On ~profile:true ~full_checks:false ()) in
    let r = first in
    let prof = Option.get profiled.profile in
    let metrics =
      [
        ("kv.store.registers", fi r.registers, "count");
        ("kv.store.preload_words_per_key", r.preload_words /. fi w.keys, "words");
        ("sim.engine.events_per_op", fi r.events /. ops r, "events");
        ("sim.engine.events_per_s", fi r.events /. r.timed_s, "events/s");
      ]
      @ protocol_metrics ~counter:(delta r) ~per:(ops r) ~puts:(fi r.puts)
      @ [
          ("harness.loadgen.peak_inflight", fi r.peak_inflight, "count");
          ("harness.loadgen.peak_queue", fi r.peak_queue, "count");
          ("spec.regularity.audit_us_per_read", ratio (r.audit_s *. 1e6) (fi r.audited_reads), "us");
          ("spec.regularity.check_us_per_history", r.audit_s *. 1e6 /. fi r.registers, "us");
          ("gc.minor_collections_per_kop", fi r.minor_gcs *. 1000.0 /. ops r, "count");
          ("gc.major_collections_per_kop", fi r.major_gcs *. 1000.0 /. ops r, "count");
        ]
      @ profile_metrics
          ~phase_s:(List.map (fun (l, _, s) -> (l, s)) prof.phase_rows)
          ~wall_s:prof.wall_s ~per:(ops profiled)
      @ [
          ("sim.trace.words_per_op.off", r.words /. ops r, "words");
          ("sim.trace.words_per_op.sampled", sampled.words /. ops sampled, "words");
          ("sim.trace.words_per_op.on", on.words /. ops on, "words");
          ("sim.trace.overhead_pct", 100.0 *. ((on.timed_s /. r.timed_s) -. 1.0), "%");
          ("sim.series.overhead_pct", 100.0 *. ((r.timed_s /. no_series.timed_s) -. 1.0), "%");
        ]
    in
    print_spans ();
    emit
      ~attempted:(List.fold_left (fun a r -> a + r.offered) 0 [ r; no_series; sampled; on; profiled ])
      ~failed:(List.fold_left (fun a r -> a + r.failed) 0 [ r; no_series; sampled; on; profiled ])
      (fill_layers metrics)
  end

let fuzz_main ~seconds ~trace =
  (* Set-up: a campaign of zero steps builds the coverage tables and runs
     the base scenario — everything a campaign does before it mutates.
     It takes about a millisecond, so each round times [setup_reps] of
     them, one by one, beside one full campaign. *)
  let setups = ref [] in
  let round () =
    fst
      (timed "fuzz.round" (fun () ->
           Gc.compact ();
           let clock = stamps (setup_reps + 1) in
           ignore
             (timed "fuzz.setup" (fun () ->
                  stamp clock;
                  for _ = 1 to setup_reps do
                    ignore (Fuzz.run ~base:fuzz_base ~iterations:0 ~seed:fuzz_seed ());
                    stamp clock
                  done));
           setups := chunk_times clock :: !setups;
           campaign ~steps:fuzz_steps ()))
  in
  let t0 = Clock.now_ns () in
  let first = round () in
  check_campaign first.report ~steps:fuzz_steps;
  let audited = audit_set first.report in
  let check = replay ~verify:true audited in
  let heap = heap_top () in
  let findings r = List.length r.report.findings in
  let per = fi check.schedules in
  let lat50, lat999 = tick_percentiles check.latencies in
  if not trace then begin
    let rounds =
      first
      :: more_rounds ~t0 ~seconds (fun () ->
          let c = round () in
          check_campaign c.report ~steps:fuzz_steps;
          expect (same_campaign first.report c.report) "fuzz: a repeated campaign diverged";
          c)
    in
    Printf.eprintf "fuzz: %d campaigns, %d findings each, corpus %d\n" (List.length rounds)
      (findings first) (List.length first.report.corpus);
    print_spans ();
    emit
      ~attempted:(List.fold_left (fun a c -> a + c.report.executed) 0 rounds)
      ~failed:(List.fold_left (fun a c -> a + findings c) 0 rounds)
      [
        ("setup_s", best_time (timing (List.rev !setups)) /. fi setup_reps, "s");
        ( "ops_per_s",
          fi first.report.executed /. best_time (List.map (fun c -> c.c_chunks) (timing rounds)),
          "ops/s" );
        ("words_per_op", first.c_words /. fi first.report.executed, "words");
        ("msgs_per_op", fi (List.assoc Names.net_sent check.r_counters) /. per, "msgs");
        ("service_ticks_p50", fi lat50, "ticks");
        ("service_ticks_p999", fi lat999, "ticks");
        ("heap_top_words", heap, "words");
        ("coverage_keys", fi first.report.coverage, "count");
      ]
  end
  else begin
    let off = replay ~level:Trace.Off ~verify:false audited in
    let sampled = replay ~level:Trace.Sampled ~verify:false audited in
    let profiled = replay ~level:Trace.On ~profile:true ~verify:false audited in
    (* The campaign's own schedules, executed alone, against the
       campaign's wall time: the rest is its bookkeeping.  The campaign
       that feeds [on_retain] pays for it, so it is not the one timed; each
       side is the faster of two tries, to damp the host's drift between
       them. *)
    let retained = ref [] in
    let traced = campaign ~on_retain:(fun s _ -> retained := s :: !retained) ~steps:fuzz_steps () in
    let bookkeeping_share =
      match campaign_schedules traced.report ~retained:(List.rev !retained) with
      | Some schedules ->
          let alone = Float.min (execute_alone schedules) (execute_alone schedules) in
          let whole =
            Float.min (campaign ~steps:fuzz_steps ()).wall_s (campaign ~steps:fuzz_steps ()).wall_s
          in
          1.0 -. (alone /. whole)
      | None ->
          expect false "fuzz: the campaign's draws could not be replayed";
          nan
    in
    let executed = fi first.report.executed in
    let counter n = fi (List.assoc n check.r_counters) in
    let execute_s = check.exec_s /. per in
    let metrics =
      [
        ("sim.engine.events_per_op", fi check.r_events /. per, "events");
        ("sim.engine.events_per_s", fi check.r_events /. check.exec_s, "events/s");
      ]
      @ protocol_metrics ~counter ~per ~puts:(fi check.writes_done)
      @ [
          ( "spec.regularity.audit_us_per_read",
            ratio (check.check_s *. 1e6) (fi check.checked_reads),
            "us" );
          ("spec.regularity.check_us_per_history", check.check_s *. 1e6 /. per, "us");
          ("harness.scenario.execute_us", execute_s *. 1e6, "us");
          ("harness.fuzz.corpus_size", fi (List.length first.report.corpus), "count");
          ("harness.fuzz.bookkeeping_share", bookkeeping_share, "share");
          ("gc.minor_collections_per_kop", fi first.c_minor *. 1000.0 /. executed, "count");
          ("gc.major_collections_per_kop", fi first.c_major *. 1000.0 /. executed, "count");
        ]
      @ profile_metrics ~phase_s:profiled.phase_s ~wall_s:profiled.prof_wall_s ~per
      @ [
          ("sim.trace.words_per_op.off", off.r_words /. per, "words");
          ("sim.trace.words_per_op.sampled", sampled.r_words /. per, "words");
          ("sim.trace.words_per_op.on", check.r_words /. per, "words");
          ("sim.trace.overhead_pct", 100.0 *. ((check.exec_s /. off.exec_s) -. 1.0), "%");
        ]
    in
    print_spans ();
    emit ~attempted:(int_of_float executed) ~failed:(findings first) (fill_layers metrics)
  end

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0 and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "kv-read-zipf | kv-write-byz | fuzz");
      ("--seed", Arg.Set_int seed, "workload seed (kv arrivals, mix and delays)");
      ("--seconds", Arg.Set_int seconds, "how long to repeat rounds");
      ("--trace", Arg.Set_int trace, "0: end-to-end metrics; 1: per-layer metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  if !seed < 0 || !seconds < 1 || (!trace <> 0 && !trace <> 1) then begin
    prerr_endline "need --seed N >= 0, --seconds S >= 1 and --trace 0|1";
    exit 2
  end;
  let trace = !trace = 1 in
  match !workload with
  | "kv-read-zipf" -> kv_main kv_read_zipf ~seed:!seed ~seconds:!seconds ~trace
  | "kv-write-byz" -> kv_main kv_write_byz ~seed:!seed ~seconds:!seconds ~trace
  | "fuzz" -> fuzz_main ~seconds:!seconds ~trace
  | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2
