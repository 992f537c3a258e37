(* The measured process of the Witcher pipeline benchmark. [run.py] execs
   it afresh for every repetition, so each reading of peak memory comes
   from a process that inherited nothing but program load. One invocation
   does one thing and prints one JSON object as its last stdout line:

     witcher_perf.exe rep WORKLOAD SEED OUT_DIR [--setup-only]
     witcher_perf.exe traced WORKLOAD SEED OUT_DIR
     witcher_perf.exe known-answers

   [rep] runs a workload through the program's own entry points at their
   default configuration, with no tracing: [Campaign.Orchestrator.run_matrix]
   for fleet, [Engine.run] for deep-gen, [Engine.run_stream] for
   stream-ycsb. [--setup-only] stops right before the first pipeline call,
   which is how set-up time is sampled. [traced] gives the per-layer
   numbers: for fleet and deep-gen it composes each store's pipeline from
   the layers' public functions in [Engine.run]'s order, with a span
   around every call; [run_stream] fuses its passes and has no seam, so
   for stream-ycsb it reads that engine's own stage timers and counters.
   Everything derived (medians, percentiles, ratios) is computed by
   [run.py]; this side only reports raw measurements. *)

module W = Witcher
module R = Stores.Registry
module C = Campaign
module J = Obs.Jsonx

let now = Unix.gettimeofday

(* ---------- workloads ---------- *)

(* One store run of a workload, with everything that determines its
   input. [traffic = Some _] selects the streaming engine under YCSB. *)
type cell = {
  store : string;
  variant : C.Job.variant;
  seed : int;
  n_ops : int;
  traffic : W.Traffic.cfg option;
}

(* fleet: every registry entry, buggy and fixed, at the CLI's default op
   count, over four workload seeds derived from the benchmark seed. One
   seed's sweep costs anywhere from 0.6x to 1.5x the median with the
   workload drawn (rb-tree and b-tree dominate: 1.5-12 s and 0.8-8 s per
   run); averaging four seeds per run halves that spread. *)
let fleet_n_ops = C.Planner.default.n_ops
let fleet_seeds seed = List.init 4 (fun i -> (4 * seed) + i + 1)

let fleet_jobs seed =
  match
    C.Planner.plan
      { C.Planner.default with seeds = fleet_seeds seed; fixed_too = true;
                               n_ops = fleet_n_ops }
  with
  | Ok jobs -> jobs
  | Error e -> failwith e

let cell_of_job (s : C.Job.spec) =
  { store = s.store; variant = s.variant; seed = s.seed; n_ops = s.n_ops;
    traffic = None }

(* deep-gen: a buggy store and a bug-free one, at an op count where
   crash-image generation is about 75% of the wall-clock and validation
   under 20%, over two workload seeds: one seed's cost can run 25% over
   the median (c-tree's atomicity conditions grow with the ops drawn). *)
let deep_gen_cells seed =
  List.concat_map
    (fun seed ->
       List.map
         (fun store ->
            { store; variant = C.Job.Buggy; seed; n_ops = 700; traffic = None })
         [ "memcached"; "c-tree" ])
    [ (2 * seed) + 1; (2 * seed) + 2 ]

(* stream-ycsb: YCSB-A (zipfian, 50/50 read/update) through the streaming
   engine. level-hash alone finds one or two root causes depending on the
   seed, so cceh and woart ride along; woart is the store whose window
   actually retires segments. *)
let stream_cells seed =
  let ycsb_a = Option.get (W.Traffic.of_name "ycsb-a") in
  List.map
    (fun (store, n_ops) ->
       { store; variant = C.Job.Buggy; seed; n_ops;
         traffic = Some { ycsb_a with n_ops; seed } })
    [ ("level-hash", 50_000); ("cceh", 20_000); ("woart", 20_000) ]

let workload_cells name seed =
  match name with
  | "fleet" -> List.map cell_of_job (fleet_jobs seed)
  | "deep-gen" -> deep_gen_cells seed
  | "stream-ycsb" -> stream_cells seed
  | w -> failwith ("unknown workload " ^ w)

(* The engine configuration `witcher run` builds for the cell: the
   defaults, plus the streaming scale rules of the CLI (replay fuel that
   covers a whole suffix, a checkpoint stride that keeps the snapshot
   count bounded). *)
let engine_cfg (c : cell) =
  let d = W.Engine.default_cfg in
  let cfg =
    { d with workload = { W.Workload.default with n_ops = c.n_ops;
                                                  seed = c.seed } }
  in
  match c.traffic with
  | None -> cfg
  | Some t ->
    { cfg with traffic = Some t;
               fuel = max d.fuel (c.n_ops * 400);
               ckpt_stride = max d.ckpt_stride (c.n_ops / 64) }

let instance (c : cell) =
  match R.find c.store with
  | None -> failwith ("unknown store " ^ c.store)
  | Some e ->
    (match c.variant with C.Job.Buggy -> e.buggy () | C.Job.Fixed -> e.fixed ())

(* ---------- known answers ---------- *)

(* Buggy variants whose seeded defect the default 200-op workload finds
   on too few seeds for a run's four to be sure to include one:
   hashmap-tx's bug 44 was found on 12 of workload seeds 1-40. When such
   a store finds nothing on all of its seeds, the miss is reported, not
   failed. *)
let unreliable_detection = [ "hashmap-tx" ]

(* The verdict a (store, variant) must reach, derived from the registry:
   a buggy variant with seeded paper bugs reports at least one C-O/C-A
   root cause on at least one of the workload's seeds, anything else
   reports none on every seed. run.py applies it. *)
let expected store variant =
  match (R.find store, variant) with
  | Some e, C.Job.Buggy when e.paper_bug_ids <> [] ->
    if List.mem store unreliable_detection then "bugs-or-miss" else "bugs"
  | Some _, _ -> "clean"
  | None, _ -> failwith ("unknown store " ^ store)

(* ---------- result encoding ---------- *)

let kind_name = function
  | W.Cluster.C_ordering -> "C-O"
  | W.Cluster.C_atomicity -> "C-A"

(* One root cause's identity, as a sortable string. *)
let fingerprint (c : cell) ~kind ~rule ~op ~watch ~req =
  String.concat "|"
    [ c.store; C.Job.variant_name c.variant; string_of_int c.seed; kind; rule;
      op; watch; req ]

let fingerprints_of_reports c (rs : W.Cluster.report list) =
  List.map
    (fun (r : W.Cluster.report) ->
       fingerprint c ~kind:(kind_name r.kind) ~rule:r.rule ~op:r.op_desc
         ~watch:r.watch_sid ~req:r.req_sid)
    rs

let cell_json (c : cell) ~status ~images_tested ~roots =
  J.Obj
    [ ("store", J.Str c.store);
      ("variant", J.Str (C.Job.variant_name c.variant));
      ("seed", J.Int c.seed);
      ("n_ops", J.Int c.n_ops);
      ("expected", J.Str (expected c.store c.variant));
      ("status", J.Str status);
      ("images_tested", J.Int images_tested);
      ("root_causes", J.List (List.map (fun s -> J.Str s) roots)) ]

let engine_cell_json c (r : W.Engine.result) =
  cell_json c ~status:"ok" ~images_tested:r.images_tested
    ~roots:(fingerprints_of_reports c r.bug_reports)

let top_heap_words () = (Gc.quick_stat ()).Gc.top_heap_words

let emit fields = print_endline (J.to_string (J.Obj fields))

(* ---------- untraced repetitions ---------- *)

let campaign_cfg out_dir =
  { C.Orchestrator.default_cfg with
    j = max 1 (min 2 (Domain.recommended_domain_count ()));
    out_dir }

(* A fleet cell read back from its journal record. *)
let journal_cell (r : C.Journal.record) =
  let c = cell_of_job r.spec in
  match (r.status, r.result) with
  | C.Journal.Job_ok, Some res ->
    let roots =
      match J.member "bug_reports" res with
      | Some (J.List reports) ->
        List.map
          (fun b ->
             fingerprint c ~kind:(J.str_field b "kind")
               ~rule:(J.str_field b "rule") ~op:(J.str_field b "op")
               ~watch:(J.str_field b "watch_sid")
               ~req:(J.str_field b "req_sid"))
          reports
      | _ -> []
    in
    cell_json c ~status:"ok" ~images_tested:(J.int_field res "images_tested")
      ~roots
  | C.Journal.Job_failed m, _ -> cell_json c ~status:("failed: " ^ m)
                                   ~images_tested:0 ~roots:[]
  | C.Journal.Job_timeout, _ | C.Journal.Job_ok, None ->
    cell_json c ~status:(C.Journal.status_name r.status) ~images_tested:0
      ~roots:[]

let worker_heap_words (records : C.Journal.record list) =
  List.fold_left
    (fun acc r ->
       match C.Journal.obs_metrics r with
       | Some s ->
         (match List.assoc_opt "mem.peak_heap_words" s.Obs.Metrics.gauges with
          | Some v -> max acc (int_of_float v)
          | None -> acc)
       | None -> acc)
    0 records

let rep workload seed out_dir ~setup_only =
  (* Set-up: everything before the first pipeline call. *)
  let fleet = if workload = "fleet" then Some (fleet_jobs seed) else None in
  let instances =
    match fleet with
    | Some _ ->
      C.Orchestrator.mkdir_p out_dir;
      []
    | None -> List.map (fun c -> (c, instance c)) (workload_cells workload seed)
  in
  let t_start = now () in
  if setup_only then emit [ ("t_start", J.Float t_start) ]
  else begin
    let cells_json, heap_words =
      match fleet with
      | Some jobs ->
        let s = C.Orchestrator.run_matrix (campaign_cfg out_dir) ~jobs in
        (List.map journal_cell s.records, worker_heap_words s.records)
      | None ->
        let rs =
          List.map
            (fun (c, inst) ->
               let cfg = engine_cfg c in
               let r =
                 if c.traffic = None then W.Engine.run ~cfg inst
                 else W.Engine.run_stream ~cfg inst
               in
               engine_cell_json c r)
            instances
        in
        (rs, top_heap_words ())
    in
    let t_end = now () in
    emit
      [ ("t_start", J.Float t_start); ("t_end", J.Float t_end);
        ("heap_words", J.Int heap_words); ("cells", J.List cells_json) ]
  end

(* ---------- traced composition ---------- *)

(* Per-layer raw measurements of one or more composed store runs. Self
   times are keyed by span name; counts by the per-layer metric they feed. *)
type acc = {
  mutable wall : float;  (* sum of cell walls *)
  self : (string, float) Hashtbl.t;
  counts : (string, int) Hashtbl.t;
  mutable check_s : float list;  (* one per Equiv.check *)
  mutable heap_words : int;
}

let new_acc () =
  { wall = 0.; self = Hashtbl.create 16; counts = Hashtbl.create 32;
    check_s = []; heap_words = 0 }

let add_self a name v =
  Hashtbl.replace a.self name
    (v +. Option.value ~default:0. (Hashtbl.find_opt a.self name))

let add_count a name v =
  Hashtbl.replace a.counts name
    (v + Option.value ~default:0 (Hashtbl.find_opt a.counts name))

(* Add each span's self time to [a] under its name: its duration minus
   that of its direct children. [Obs.Span.events] lists spans in start
   order, outer first. *)
let add_self_times a (events : Obs.Span.event list) =
  let stack = ref [] in
  List.iter
    (fun (e : Obs.Span.event) ->
       let rec pop = function
         | (p : Obs.Span.event) :: rest when p.depth >= e.depth -> pop rest
         | l -> l
       in
       stack := pop !stack;
       (match !stack with
        | p :: _ -> add_self a p.name (-.e.dur)
        | [] -> ());
       add_self a e.name e.dur;
       stack := e :: !stack)
    events

(* [Engine.run]'s pipeline for one cell at the default config, composed
   from public calls, each wrapped in a span of [buf]. Returns the root
   causes as [Cluster.root_causes] reports them. *)
let compose ~buf a (c : cell) =
  let module S = (val instance c) in
  let cfg = engine_cfg c in
  let span name f = Obs.Span.with_span ~buf name f in
  Obs.Metrics.reset Obs.Metrics.default;
  let t0 = now () in
  let roots, stats, estats, conds, trace_len, n_mismatch, n_clusters =
    span "cell" @@ fun () ->
    let ops =
      span "workload.generate" (fun () ->
          W.Workload.generate
            (if S.supports_scan then cfg.workload
             else W.Workload.no_scan cfg.workload))
    in
    let recorded =
      span "driver.record" (fun () ->
          W.Driver.record ~ckpt_stride:cfg.ckpt_stride (module S) ops)
    in
    let trace = recorded.trace in
    let conds = span "infer.infer" (fun () -> W.Infer.infer trace) in
    ignore (span "perf.detect" (fun () -> W.Perf.detect trace));
    let checker =
      span "equiv.create" (fun () ->
          let ch =
            W.Equiv.create ~fuel:cfg.fuel ~lazy_oracle:cfg.lazy_oracle
              ~memo:cfg.memo ~checkpoints:recorded.checkpoints
              (module S : W.Store_intf.S) ~ops:recorded.ops
              ~committed:recorded.outputs
          in
          if cfg.batch then
            W.Equiv.enable_batch ch ~addr_len:(fun tid ->
                (Nvm.Trace.addr_at trace tid, Nvm.Trace.len_at trace tid));
          ch)
    in
    let clusters = W.Cluster.create ~store_name:S.name in
    let op_kind_sids =
      Array.init
        (Array.length recorded.ops + 1)
        (fun k ->
           let desc =
             if k = 0 then "create" else W.Op.desc recorded.ops.(k - 1)
           in
           Nvm.Sid.intern (W.Cluster.op_kind_of_desc desc))
    in
    let n_mismatch = ref 0 in
    let on_image (image : W.Crash_gen.image) =
      let verdict =
        span "equiv.check" (fun () ->
            W.Equiv.check ~digest:image.digest ~fence:image.crash_tid
              ~extras:image.extras checker ~img:image.img
              ~crash_op:image.crash_op)
      in
      (match verdict with
       | W.Equiv.Consistent -> ()
       | W.Equiv.Inconsistent _ ->
         incr n_mismatch;
         span "cluster.add" (fun () ->
             W.Cluster.add clusters ~image
               ~op_kind:op_kind_sids.(image.crash_op) ~verdict));
      `Continue
    in
    let stats =
      span "crash_gen.generate" (fun () ->
          W.Crash_gen.generate ~cfg:cfg.crash ~sig_depth:cfg.sig_depth ~trace
            ~conds ~pool_size:recorded.pool_size ~on_image ())
    in
    span "equiv.flush_batch" (fun () -> W.Equiv.flush_batch checker);
    let roots =
      span "cluster.root_causes" (fun () -> W.Cluster.root_causes clusters)
    in
    ( roots, stats, W.Equiv.stats checker, conds, Nvm.Trace.length trace,
      !n_mismatch, W.Cluster.n_clusters clusters )
  in
  a.wall <- a.wall +. (now () -. t0);
  let ctr = Obs.Metrics.(counter_value (snapshot default)) in
  List.iter
    (fun (k, v) -> add_count a k v)
    [ ("driver.trace_events", trace_len);
      ("driver.resumes", ctr "driver.resumes");
      ("driver.ckpt_resumes", ctr "driver.ckpt_resumes");
      ("driver.ckpt_bytes", ctr "driver.ckpt_bytes");
      ("infer.ord_conds", W.Infer.n_ordering conds);
      ("infer.atom_conds", W.Infer.n_atomicity conds);
      ("crash_gen.images_generated", stats.generated);
      ("crash_gen.images_tested", stats.tested);
      ("crash_sim.bytes_materialized", stats.bytes_materialized);
      ("equiv.replay_ops", estats.n_replay_ops);
      ("equiv.oracle_runs", estats.n_oracle_runs);
      ("equiv.batch_images", estats.n_batch_images);
      ("equiv.inherit_hits", estats.n_inherit_hits);
      ("equiv.mismatches", n_mismatch);
      ("cluster.clusters", n_clusters) ];
  (fingerprints_of_reports c roots, stats.tested)

(* The engine's own figures for a streaming cell: [run_stream] has no
   seam to compose across, so its stage timers stand in for spans. *)
let stream_traced a (c : cell) =
  let t0 = now () in
  let r = W.Engine.run_stream ~cfg:(engine_cfg c) (instance c) in
  a.wall <- a.wall +. (now () -. t0);
  let ctr = Obs.Metrics.(counter_value (snapshot default)) in
  add_self a "driver.record" r.t_record;
  add_self a "infer.infer" r.t_infer;
  add_self a "crash_gen.generate" r.t_gen;
  add_self a "equiv.check" r.t_equiv;
  List.iter
    (fun (k, v) -> add_count a k v)
    [ ("driver.trace_events", r.trace_len);
      ("driver.resumes", ctr "driver.resumes");
      ("driver.ckpt_resumes", ctr "driver.ckpt_resumes");
      ("driver.ckpt_bytes", r.ckpt_bytes);
      ("infer.ord_conds", r.n_ord_conds);
      ("infer.atom_conds", r.n_atom_conds);
      ("crash_gen.images_generated", r.images_generated);
      ("crash_gen.images_tested", r.images_tested);
      ("crash_sim.bytes_materialized", r.bytes_materialized);
      ("equiv.replay_ops", r.replay_ops);
      ("equiv.oracle_runs", r.oracle_runs);
      ("equiv.batch_images", r.batch_images);
      ("equiv.inherit_hits", r.inherit_hits);
      ("equiv.mismatches", r.n_mismatch);
      ("cluster.clusters", r.n_clusters);
      ("stream.window_retirements", r.window_retirements);
      ("stream.ckpt_ring_evictions", r.ckpt_ring_evictions) ];
  engine_cell_json c r

(* Compose one cell and fold its spans into [a]. *)
let compose_cell ~buf a c =
  Obs.Span.clear buf;
  let roots, tested = compose ~buf a c in
  let events = Obs.Span.events buf in
  add_self_times a events;
  List.iter
    (fun (e : Obs.Span.event) ->
       if e.name = "equiv.check" then a.check_s <- e.dur :: a.check_s)
    events;
  (cell_json c ~status:"ok" ~images_tested:tested ~roots, events)

let acc_json a =
  [ ("wall", J.Float a.wall);
    ("self",
     J.Obj (Hashtbl.fold (fun k v l -> (k, J.Float v) :: l) a.self []));
    ("counts",
     J.Obj (Hashtbl.fold (fun k v l -> (k, J.Int v) :: l) a.counts []));
    ("check_s", J.List (List.rev_map (fun v -> J.Float v) a.check_s));
    ("heap_words", J.Int a.heap_words) ]

(* Merge a worker's [acc_json] payload into [a]. *)
let merge_acc a j =
  let float v = Option.value ~default:0. (J.to_float_opt v) in
  a.wall <- a.wall +. J.float_field j "wall";
  (match J.member "self" j with
   | Some (J.Obj l) -> List.iter (fun (k, v) -> add_self a k (float v)) l
   | _ -> ());
  (match J.member "counts" j with
   | Some (J.Obj l) ->
     List.iter
       (fun (k, v) -> add_count a k (Option.value ~default:0 (J.to_int_opt v)))
       l
   | _ -> ());
  (match J.member "check_s" j with
   | Some (J.List l) -> List.iter (fun v -> a.check_s <- float v :: a.check_s) l
   | _ -> ());
  a.heap_words <- max a.heap_words (J.int_field j "heap_words")

let write_trace ~out_dir tracks =
  Obs.Trace_export.write ~path:(Filename.concat out_dir "trace.json")
    (Obs.Trace_export.coalesce tracks)

let traced workload seed out_dir =
  C.Orchestrator.mkdir_p out_dir;
  let a = new_acc () in
  let buf = Obs.Span.create_buf () in
  let t_start = now () in
  let cells_json, extra, tracks =
    match workload with
    | "fleet" ->
      (* The composed pipeline runs inside the campaign's own workers, so
         the campaign layer is measured around it exactly as untraced. *)
      let run_job (spec : C.Job.spec) =
        let w = new_acc () in
        let cj, events = compose_cell ~buf w (cell_of_job spec) in
        w.heap_words <- top_heap_words ();
        J.Obj
          (("cell", cj) :: ("spans", Obs.Span.events_to_json events)
           :: acc_json w)
      in
      let ccfg = campaign_cfg out_dir in
      let s =
        C.Orchestrator.run_matrix ~run_job ccfg ~jobs:(fleet_jobs seed)
      in
      let cells, tracks =
        List.split
          (List.map
             (fun (r : C.Journal.record) ->
                match r.result with
                | Some res when r.status = C.Journal.Job_ok ->
                  merge_acc a res;
                  let events =
                    match J.member "spans" res with
                    | Some sp -> Obs.Span.events_of_json sp
                    | None -> []
                  in
                  ( Option.value ~default:J.Null (J.member "cell" res),
                    { Obs.Trace_export.pid =
                        Option.value ~default:0 (C.Journal.obs_pid r);
                      label = C.Job.describe r.spec; events } )
                | _ ->
                  ( journal_cell r,
                    { Obs.Trace_export.pid = 0; label = C.Job.describe r.spec;
                      events = [] } ))
             s.records)
      in
      ( cells,
        [ ("matrix_wall", J.Float s.elapsed);
          ("job_walls",
           J.List
             (List.map
                (fun (r : C.Journal.record) -> J.Float r.t_wall)
                s.records));
          ("workers", J.Int ccfg.j) ],
        tracks )
    | "deep-gen" ->
      let cells, events =
        List.split (List.map (compose_cell ~buf a) (deep_gen_cells seed))
      in
      a.heap_words <- top_heap_words ();
      ( cells, [],
        [ { Obs.Trace_export.pid = Unix.getpid (); label = workload;
            events = List.concat events } ] )
    | "stream-ycsb" ->
      let cells =
        List.map
          (fun c ->
             let cj = stream_traced a c in
             (cj, Obs.Span.events Obs.Span.default_buf))
          (stream_cells seed)
      in
      a.heap_words <- top_heap_words ();
      ( List.map fst cells, [],
        [ { Obs.Trace_export.pid = Unix.getpid (); label = workload;
            events = List.concat_map snd cells } ] )
    | w -> failwith ("unknown workload " ^ w)
  in
  let t_end = now () in
  write_trace ~out_dir tracks;
  emit
    ([ ("t_start", J.Float t_start); ("t_end", J.Float t_end);
       ("cells", J.List cells_json) ]
     @ extra @ acc_json a)

(* ---------- known-answer table ---------- *)

let known_answers () =
  let rows =
    List.concat_map
      (fun (e : R.entry) ->
         List.map
           (fun v ->
              J.Obj
                [ ("store", J.Str e.name);
                  ("variant", J.Str (C.Job.variant_name v));
                  ("expected", J.Str (expected e.name v)) ])
           [ C.Job.Buggy; C.Job.Fixed ])
      R.all
  in
  let fleet_cells =
    List.map
      (fun (s : C.Job.spec) ->
         J.Str (s.store ^ "/" ^ C.Job.variant_name s.variant))
      (List.filter (fun (s : C.Job.spec) -> s.seed = List.hd (fleet_seeds 0))
         (fleet_jobs 0))
  in
  emit
    [ ("registry",
       J.List (List.map (fun (e : R.entry) -> J.Str e.name) R.all));
      ("unreliable_detection",
       J.List (List.map (fun s -> J.Str s) unreliable_detection));
      ("answers", J.List rows);
      ("fleet_cells", J.List fleet_cells) ]

let () =
  match Array.to_list Sys.argv |> List.tl with
  | [ "rep"; w; seed; out ] -> rep w (int_of_string seed) out ~setup_only:false
  | [ "rep"; w; seed; out; "--setup-only" ] ->
    rep w (int_of_string seed) out ~setup_only:true
  | [ "traced"; w; seed; out ] -> traced w (int_of_string seed) out
  | [ "known-answers" ] -> known_answers ()
  | _ ->
    prerr_endline
      "usage: witcher_perf.exe (rep WORKLOAD SEED OUT_DIR [--setup-only] \
       | traced WORKLOAD SEED OUT_DIR | known-answers)";
    exit 2
