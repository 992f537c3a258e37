(* The end-to-end Witcher pipeline (Figure 2): trace -> inference -> crash
   image generation -> output equivalence checking, plus the trace-based
   performance detector. Produces one Table 5-style result per store. *)

type cfg = {
  workload : Workload.cfg;
  crash : Crash_gen.cfg;
  fuel : int;
      (* access ceiling for one whole resumed execution; the hang
         detector is the per-op budget derived from the recording
         (Driver.cap_at), which stops a runaway op long before this *)
  (* Oracle/replay optimizations (DESIGN §5); each independently
     toggleable, all verdict-equivalent to the reference checker. *)
  lazy_oracle : bool;  (* build rolled-back oracles on first divergence *)
  memo : bool;         (* digest-keyed verdict memoization *)
  ckpt_stride : int;   (* record-time checkpoint every N ops; 0 = off *)
  batch : bool;        (* fence-batched checking with verdict inheritance *)
  (* Path-representative image pruning (DESIGN §7). *)
  prune : Prune.Policy.t;
  expand_budget : int; (* spot-check validations per equivalence class *)
  sig_depth : int;     (* truncate pruning signatures to the op's last K
                          sites; 0 = full path (cluster keys always full) *)
  (* Streaming pipeline (DESIGN §9). *)
  traffic : Traffic.cfg option;
      (* YCSB-style generator instead of [workload]; honored by both
         engines so streaming A/B comparisons run the same ops *)
  stream_seg_shift : int;  (* ring segment size: 2^shift trace events *)
  stream_window : int;     (* live window, in segments *)
  ckpt_ring : int;         (* checkpoint-ring capacity (streaming only) *)
}

let default_cfg =
  { workload = Workload.default; crash = Crash_gen.default_cfg;
    fuel = 3_000_000; lazy_oracle = true; memo = true; ckpt_stride = 32;
    batch = true; prune = Prune.Policy.Exhaustive; expand_budget = 3;
    sig_depth = 0;
    traffic = None; stream_seg_shift = 14; stream_window = 8; ckpt_ring = 8 }

type result = {
  name : string;
  n_ops : int;
  trace_len : int;
  n_loads : int;
  n_stores : int;
  n_flushes : int;
  n_fences : int;
  n_ord_conds : int;
  n_atom_conds : int;
  n_guardians : int;
  images_generated : int;
  images_tested : int;
  n_mismatch : int;          (* tested images failing equivalence *)
  n_clusters : int;
  c_o : int;                 (* distinct ordering bug site-pairs *)
  c_a : int;                 (* distinct atomicity bug site-pairs *)
  perf : Perf.t;
  bug_reports : Cluster.report list;   (* one per distinct root cause *)
  site_pairs : Cluster.report list;
  all_clusters : Cluster.report list;
  per_op_images : (int, int) Hashtbl.t;
  op_caps : Driver.caps;     (* per-op replay budgets (Driver.cap_at) *)
  replay_ops : int;          (* store ops re-executed across all resumes *)
  replay_early_stops : int;  (* replays the incremental checker cut short *)
  bytes_materialized : int;  (* bytes copied to build crash images *)
  oracle_runs : int;         (* rolled-back oracles actually built *)
  oracle_ops_saved : int;    (* oracle ops elided by laziness/checkpoints *)
  memo_hits : int;           (* verdicts served from the digest memo *)
  ckpt_bytes : int;          (* record-time checkpoint memory footprint *)
  (* Fence-batched checking (DESIGN §5); all zero when batch is off. *)
  batch_on : bool;
  batch_fences : int;        (* fence groups opened by the batched path *)
  batch_images : int;        (* images routed through a fence group *)
  inherit_hits : int;        (* verdicts inherited from a group sibling *)
  inherit_ops_saved : int;   (* replay ops those inherited checks skipped *)
  (* Path-representative pruning (DESIGN §7); all zero under Exhaustive. *)
  prune_policy : Prune.Policy.t;
  prune_classes : int;       (* path-signature equivalence classes seen *)
  prune_reps : int;          (* representative + spot-check validations *)
  images_deferred : int;     (* eligible images elided at decision time *)
  images_elided : int;       (* deferred images never validated at all *)
  prune_expansions : int;    (* classes promoted back to full validation *)
  seed_memo_hits : int;      (* classes elided via the cross-seed memo *)
  class_outcomes : (string * bool) list;  (* stable class key -> consistent *)
  (* Streaming pipeline (DESIGN §9); stream_on = false in batch runs. *)
  stream_on : bool;
  window_retirements : int;  (* ring segments recycled (both passes) *)
  ckpt_ring_evictions : int; (* checkpoints dropped as the ring rotated *)
  peak_live_words : int;     (* max GC live words sampled during the run *)
  t_record : float;
  t_infer : float;
  t_gen : float;             (* crash-image generation (trace walk + COW) *)
  t_equiv : float;           (* output-equivalence checking (replays) *)
}

(* Final full-heap sample of a run, returning its peak live words. The
   cheap periodic samples track heap words only; the full samples (phase
   boundaries, every few thousand streamed ops, and this closing one)
   feed the live-words peak. *)
let sampled_peak_live_words () =
  Obs.Metrics.sample_mem ~full:true ();
  let s : Obs.Metrics.snapshot = Obs.Metrics.snapshot Obs.Metrics.default in
  match List.assoc_opt "mem.peak_live_words" s.Obs.Metrics.gauges with
  | Some v -> int_of_float v
  | None -> 0

(* Wall-clock, not CPU time: campaign workers run in parallel processes,
   and per-phase timings must stay comparable to the sweep's elapsed
   time. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* One engine run owns the process-local observability state: the default
   metrics registry and span buffer are reset at entry, so the snapshot a
   campaign worker ships (or `witcher run -v` prints) covers exactly this
   run. Stage spans carry measured durations; [stage.gen]/[stage.equiv]
   are pipeline-fused in reality, so they are laid out as two adjacent
   logical spans tiling the fused loop's interval (DESIGN §6). *)
let run ?(cfg = default_cfg) ?(class_memo = fun (_ : string) -> None)
    (module S : Store_intf.S) =
  Obs.Metrics.reset Obs.Metrics.default;
  Obs.Span.clear Obs.Span.default_buf;
  Obs.Span.with_span ~attrs:[ ("store", S.name) ] "engine.run" @@ fun () ->
  (* The event sink is caller-owned (CLI / campaign worker), not reset
     here: a `run` header event scopes this run's ids within the shard. *)
  if Obs.Event.enabled () then
    ignore
      (Obs.Event.emit "run"
         ~fields:
           [ ("v", Obs.Jsonx.Int Obs.Event.version);
             ("store", Obs.Jsonx.Str S.name);
             ("seed", Obs.Jsonx.Int cfg.workload.Workload.seed);
             ("n_ops", Obs.Jsonx.Int cfg.workload.Workload.n_ops);
             ("max_images", Obs.Jsonx.Int cfg.crash.Crash_gen.max_images);
             ("policy", Obs.Jsonx.Str (Prune.Policy.name cfg.prune)) ]);
  let wl = if S.supports_scan then cfg.workload else Workload.no_scan cfg.workload in
  let ops =
    match cfg.traffic with
    | Some tc ->
      Traffic.generate (if S.supports_scan then tc else Traffic.no_scan tc)
    | None -> Workload.generate wl
  in
  let rec_t0 = Unix.gettimeofday () in
  let recorded, t_record =
    timed (fun () ->
        Driver.record ~ckpt_stride:cfg.ckpt_stride
          ?events_hint:(Option.map Traffic.events_hint cfg.traffic)
          (module S) ops)
  in
  Obs.Span.add ~name:"stage.record" ~ts:rec_t0 ~dur:t_record
    ~attrs:[ ("n_ops", string_of_int (Array.length recorded.ops)) ] ();
  let inf_t0 = Unix.gettimeofday () in
  let conds, t_infer = timed (fun () -> Infer.infer recorded.trace) in
  Obs.Span.add ~name:"stage.infer" ~ts:inf_t0 ~dur:t_infer ();
  let perf = Perf.detect recorded.trace in
  let checker =
    Equiv.create ~fuel:cfg.fuel ~caps:recorded.caps
      ~lazy_oracle:cfg.lazy_oracle ~memo:cfg.memo
      ~checkpoints:recorded.checkpoints (module S : Store_intf.S)
      ~ops:recorded.ops ~committed:recorded.outputs
  in
  if cfg.batch then
    Equiv.enable_batch checker
      ~addr_len:(fun tid ->
        ( Nvm.Trace.addr_at recorded.trace tid,
          Nvm.Trace.len_at recorded.trace tid ));
  let clusters = Cluster.create ~store_name:S.name in
  let n_mismatch = ref 0 in
  let op_desc_of k =
    if k = 0 then "create" else Op.desc recorded.ops.(k - 1)
  in
  (* Interned operation type per op index: cluster keys and pruning
     signatures share it without touching strings per image. *)
  let op_kind_sids =
    Array.init
      (Array.length recorded.ops + 1)
      (fun k -> Nvm.Sid.intern (Cluster.op_kind_of_desc (op_desc_of k)))
  in
  (* Pruning signatures use the (possibly truncated) [cd_path_sig] /
     [path_sig] digest; cluster keys keep digesting the full path. At the
     default sig_depth 0 the two coincide. *)
  let sig_of_cand (c : Crash_gen.cand) =
    let watch, req = Crash_gen.violation_sids c.cd_viol in
    Prune.Path_sig.make ~op_kind:op_kind_sids.(c.cd_crash_op)
      ~path:c.cd_path_sig ~watch ~req
  in
  let prune_sig (image : Crash_gen.image) =
    let watch, req = Crash_gen.violation_sids image.viol in
    Prune.Path_sig.make ~op_kind:op_kind_sids.(image.crash_op)
      ~path:image.path_sig ~watch ~req
  in
  (* Generation and checking are pipeline-fused (one image alive at a
     time), so the stage split is measured around each Equiv.check call:
     t_equiv is the replay/compare time, t_gen the rest of the walk. *)
  let t_equiv_acc = ref 0. in
  (* Provenance tag for the verdict currently being reached: why the
     image under check was admitted. Set by the decide hook (or the
     policy branch) immediately before [on_image] fires — valid because
     generation and checking are pipeline-fused and sequential. *)
  let prov = ref "exhaustive" in
  (* One `slice` event per would-be cluster: the trace events touching
     the violated condition's addresses, up to the crash point. *)
  let slices_done : (Prune.Path_sig.t, unit) Hashtbl.t = Hashtbl.create 16 in
  let emit_slice (image : Crash_gen.image) =
    let trace = recorded.trace in
    let watch, req = Crash_gen.violation_sids image.viol in
    let upto = min image.crash_tid (Nvm.Trace.length trace - 1) in
    (* address ranges written by the condition's sites before the crash *)
    let ranges = ref [] in
    for tid = 0 to upto do
      if Nvm.Trace.kind_at trace tid = Nvm.Trace.k_store then begin
        let sid = Nvm.Trace.sid_at trace tid in
        if (sid = watch || sid = req) && List.length !ranges < 8 then begin
          let r = (Nvm.Trace.addr_at trace tid, Nvm.Trace.len_at trace tid) in
          if not (List.mem r !ranges) then ranges := r :: !ranges
        end
      end
    done;
    let overlaps addr len =
      List.exists (fun (a, l) -> Infer.overlap addr len a l) !ranges
    in
    let cap = 48 in
    let rev_entries = ref [] in
    let total = ref 0 in
    for tid = 0 to upto do
      let k = Nvm.Trace.kind_at trace tid in
      if (k = Nvm.Trace.k_store || k = Nvm.Trace.k_flush)
      && overlaps (Nvm.Trace.addr_at trace tid) (Nvm.Trace.len_at trace tid)
      then begin
        incr total;
        let kind = if k = Nvm.Trace.k_store then "store" else "flush" in
        rev_entries :=
          Obs.Jsonx.List
            [ Obs.Jsonx.Int tid; Obs.Jsonx.Str kind;
              Obs.Jsonx.Str (Nvm.Sid.to_string (Nvm.Trace.sid_at trace tid));
              Obs.Jsonx.Int (Nvm.Trace.addr_at trace tid);
              Obs.Jsonx.Int (Nvm.Trace.len_at trace tid);
              Obs.Jsonx.Int (Nvm.Trace.op_at trace tid) ]
          :: !rev_entries
      end
    done;
    (* keep the tail: the events nearest the crash carry the story *)
    let rec take n l = if n = 0 then [] else
        match l with [] -> [] | x :: r -> x :: take (n - 1) r
    in
    let entries = List.rev (take cap !rev_entries) in
    ignore
      (Obs.Event.emit "slice"
         ~fields:
           [ ("image", Obs.Jsonx.Int !Obs.Event.last_image_id);
             ("crash", Obs.Jsonx.Int image.crash_tid);
             ("entries", Obs.Jsonx.List entries);
             ("truncated", Obs.Jsonx.Bool (!total > cap)) ])
  in
  (* Check one image and feed the cluster table; [observe] additionally
     reports the verdict to the pruning registry (pass 1 only). *)
  let check_image ?observe (image : Crash_gen.image) =
    let t0 = Unix.gettimeofday () in
    let memo_before = (Equiv.stats checker).Equiv.n_memo_hits in
    let inherit_before = (Equiv.stats checker).Equiv.n_inherit_hits in
    let verdict =
      Equiv.check ~digest:image.digest ~fence:image.crash_tid
        ~extras:image.extras checker ~img:image.img ~crash_op:image.crash_op
    in
    t_equiv_acc := !t_equiv_acc +. (Unix.gettimeofday () -. t0);
    (match observe with
     | None -> ()
     | Some f -> f image (verdict = Equiv.Consistent));
    if Obs.Event.enabled () then begin
      let sig_ =
        Cluster.signature ~op_kind:op_kind_sids.(image.crash_op) image
      in
      let skey = Prune.Path_sig.stable_key sig_ in
      let memo_hit = (Equiv.stats checker).Equiv.n_memo_hits > memo_before in
      let inherit_hit =
        (Equiv.stats checker).Equiv.n_inherit_hits > inherit_before
      in
      let fields =
        [ ("image", Obs.Jsonx.Int !Obs.Event.last_image_id);
          ("class", Obs.Jsonx.Str skey);
          ("consistent", Obs.Jsonx.Bool (verdict = Equiv.Consistent));
          ("memo", Obs.Jsonx.Bool memo_hit);
          ("inherit", Obs.Jsonx.Bool inherit_hit);
          ("prov", Obs.Jsonx.Str !prov) ]
        @ (match verdict with
           | Equiv.Consistent -> []
           | Equiv.Inconsistent v ->
             [ ("first_diff", Obs.Jsonx.Int v.first_diff);
               ("got", Obs.Jsonx.Str (Fmt.str "%a" Output.pp v.got));
               ("expect_committed",
                Obs.Jsonx.Str (Fmt.str "%a" Output.pp v.expect_committed));
               ("expect_rolled_back",
                Obs.Jsonx.Str (Fmt.str "%a" Output.pp v.expect_rolled_back));
               ("crashed", Obs.Jsonx.Bool v.crashed) ])
      in
      ignore (Obs.Event.emit "verdict" ~fields);
      match verdict with
      | Equiv.Inconsistent _ when not (Hashtbl.mem slices_done sig_) ->
        Hashtbl.add slices_done sig_ ();
        emit_slice image
      | _ -> ()
    end;
    (match verdict with
     | Equiv.Consistent -> ()
     | Equiv.Inconsistent _ ->
       incr n_mismatch;
       Cluster.add clusters ~image ~op_kind:op_kind_sids.(image.crash_op)
         ~verdict);
    `Continue
  in
  let reg = ref None in
  let expanded_tested = ref 0 in
  let check_t0 = Unix.gettimeofday () in
  let stats, t_check =
    timed (fun () ->
        match cfg.prune with
        | Prune.Policy.Exhaustive ->
          Crash_gen.generate ~cfg:cfg.crash ~sig_depth:cfg.sig_depth
            ~trace:recorded.trace ~conds ~pool_size:recorded.pool_size
            ~on_image:check_image ()
        | Prune.Policy.Sample stride ->
          (* blind §7.5-style statistical fallback: every stride-th
             eligible image, no class tracking, no expansion *)
          let i = ref (-1) in
          let decide (_ : Crash_gen.cand) =
            incr i;
            if !i mod stride = 0 then begin
              prov := "sample";
              `Test
            end
            else `Defer
          in
          Crash_gen.generate ~cfg:cfg.crash ~decide ~sig_depth:cfg.sig_depth
            ~trace:recorded.trace ~conds ~pool_size:recorded.pool_size
            ~on_image:check_image ()
        | Prune.Policy.Representative ->
          let r =
            Prune.Equiv_class.create
              ~expand:(Prune.Expand.create ~budget:cfg.expand_budget)
              ~memo:class_memo ()
          in
          reg := Some r;
          (* Pass 1: one representative (plus spot-checks) per class;
             deferred members are remembered by their stable
             (fence, persist-set) identity, not by image — a materialized
             image aliases the live simulator pool and dies at the next
             trace event. *)
          let decide (c : Crash_gen.cand) =
            match
              Prune.Equiv_class.decide r ~sig_:(sig_of_cand c)
                ~member:(c.cd_fence_tid, c.cd_key)
            with
            | `Test ->
              prov := Prune.Equiv_class.last_reason r;
              `Test
            | `Defer -> `Defer
          in
          let observe image consistent =
            Prune.Equiv_class.observe r ~sig_:(prune_sig image) ~consistent
          in
          let stats =
            Crash_gen.generate ~cfg:cfg.crash ~decide ~sig_depth:cfg.sig_depth
              ~trace:recorded.trace ~conds ~pool_size:recorded.pool_size
              ~on_image:(check_image ~observe) ()
          in
          (* Expansion waves. Generation is deterministic over the same
             trace and config, so re-running it with a decide hook that
             admits an explicit member set re-materializes precisely
             those images; the Equiv checker (and its digest memo)
             carries over. The first wave holds every promoted class's
             deferred members plus one tail spot-check per collapsed
             class — the latest deferred member, the highest-value extra
             check since divergence typically appears late as corruption
             accumulates. Verdicts observed during a wave can promote
             further classes, whose remaining members form the next
             wave; the loop reaches a fixpoint because each class
             expands at most once. *)
          let tested_extra = Hashtbl.create 256 in
          let expanded_sigs = Hashtbl.create 64 in
          let next_wave () =
            let want = Hashtbl.create 256 in
            List.iter
              (fun (sig_, members) ->
                 if not (Hashtbl.mem expanded_sigs sig_) then begin
                   Hashtbl.add expanded_sigs sig_ ();
                   List.iter
                     (fun m ->
                        if not (Hashtbl.mem tested_extra m) then
                          Hashtbl.replace want m ())
                     members
                 end)
              (Prune.Equiv_class.promoted_deferred r);
            want
          in
          let wave = ref (next_wave ()) in
          let tails = Hashtbl.create 16 in
          List.iter
            (fun (_sig, m) ->
               if not (Hashtbl.mem tested_extra m) then begin
                 Hashtbl.replace !wave m ();
                 Hashtbl.replace tails m ()
               end)
            (Prune.Equiv_class.tail_spots r);
          let pass = ref 0 in
          while Hashtbl.length !wave > 0 do
            incr pass;
            let want = !wave in
            let decide (c : Crash_gen.cand) =
              let m = (c.cd_fence_tid, c.cd_key) in
              if Hashtbl.mem want m then begin
                Hashtbl.replace tested_extra m ();
                prov :=
                  (if Hashtbl.mem tails m then "tail"
                   else "wave:" ^ string_of_int !pass);
                `Test
              end
              else `Defer
            in
            (* each wanted member materializes exactly once; cut the
               re-walk short as soon as the last one has been checked *)
            let remaining = ref (Hashtbl.length want) in
            let on_image image =
              ignore (check_image ~observe image);
              decr remaining;
              if !remaining = 0 then `Stop else `Continue
            in
            let stats_w =
              Crash_gen.generate ~cfg:cfg.crash ~decide ~pass:!pass
                ~sig_depth:cfg.sig_depth ~trace:recorded.trace ~conds
                ~pool_size:recorded.pool_size ~on_image ()
            in
            expanded_tested := !expanded_tested + stats_w.Crash_gen.tested;
            stats.Crash_gen.tested <-
              stats.Crash_gen.tested + stats_w.Crash_gen.tested;
            stats.Crash_gen.bytes_materialized <-
              stats.Crash_gen.bytes_materialized
              + stats_w.Crash_gen.bytes_materialized;
            wave := next_wave ()
          done;
          stats)
  in
  (* Close the last open fence group so the images-per-batch histogram
     covers every group. *)
  Equiv.flush_batch checker;
  let t_equiv = !t_equiv_acc in
  let t_gen = Float.max 0. (t_check -. t_equiv) in
  (* The two fused stages tile [check_t0, check_t0 + t_check): their span
     durations sum exactly to the loop's wall-clock, so stage spans and
     the journal's t_* fields agree (asserted by the obs-smoke alias). *)
  Obs.Span.add ~name:"stage.gen" ~ts:check_t0 ~dur:t_gen
    ~attrs:[ ("images_generated", string_of_int stats.generated);
             ("images_tested", string_of_int stats.tested) ] ();
  Obs.Span.add ~name:"stage.equiv" ~ts:(check_t0 +. t_gen)
    ~dur:(Float.max 0. (t_check -. t_gen)) ();
  let estats = Equiv.stats checker in
  let bug_reports = Cluster.root_causes clusters in
  let site_pairs = Cluster.site_pairs clusters in
  (* §4.5: an unpersisted store is only a *performance* bug if it passes
     output equivalence checking; sites implicated in a correctness bug
     are dropped from P-U. *)
  List.iter
    (fun (r : Cluster.report) ->
       Hashtbl.remove perf.Perf.p_u.sites (Nvm.Sid.intern r.watch_sid);
       Hashtbl.remove perf.Perf.p_u.sites (Nvm.Sid.intern r.req_sid))
    site_pairs;
  let count kind =
    List.length (List.filter (fun (r : Cluster.report) -> r.kind = kind) bug_reports)
  in
  let prune_classes, prune_reps, prune_expansions, seed_memo_hits,
      class_outcomes =
    match !reg with
    | Some r ->
      ( Prune.Equiv_class.n_classes r, Prune.Equiv_class.n_reps r,
        Prune.Equiv_class.n_promoted r, Prune.Equiv_class.n_memo_hits r,
        Prune.Equiv_class.outcomes r )
    | None -> (0, 0, 0, 0, [])
  in
  let images_deferred = stats.deferred in
  let images_elided = stats.deferred - !expanded_tested in
  if cfg.prune <> Prune.Policy.Exhaustive then begin
    Obs.Metrics.incr ~n:prune_classes "prune.classes";
    Obs.Metrics.incr ~n:prune_reps "prune.reps";
    Obs.Metrics.incr ~n:images_elided "prune.images_elided";
    Obs.Metrics.incr ~n:prune_expansions "prune.expansions";
    Obs.Metrics.incr ~n:seed_memo_hits "prune.seed_memo_hits"
  end;
  (* End-of-run forensics: one `class` event per pruning class, one
     `cluster` event per failing cluster (flagged when it is a root
     cause), and a `summary` of the headline counters. *)
  if Obs.Event.enabled () then begin
    (match !reg with
     | Some r ->
       List.iter
         (fun (ci : Prune.Equiv_class.info) ->
            ignore
              (Obs.Event.emit "class"
                 ~fields:
                   [ ("class", Obs.Jsonx.Str ci.i_skey);
                     ("op_kind",
                      Obs.Jsonx.Str
                        (Nvm.Sid.to_string ci.i_sig.Prune.Path_sig.op_kind));
                     ("path", Obs.Jsonx.Int ci.i_sig.Prune.Path_sig.path);
                     ("watch",
                      Obs.Jsonx.Str
                        (Nvm.Sid.to_string ci.i_sig.Prune.Path_sig.watch));
                     ("req",
                      Obs.Jsonx.Str
                        (Nvm.Sid.to_string ci.i_sig.Prune.Path_sig.req));
                     ("members", Obs.Jsonx.Int ci.i_members);
                     ("deferred", Obs.Jsonx.Int ci.i_deferred);
                     ("spots", Obs.Jsonx.Int ci.i_spots);
                     ("promoted", Obs.Jsonx.Bool ci.i_promoted);
                     ("memo_hit", Obs.Jsonx.Bool ci.i_memo_hit);
                     ("prediction",
                      match ci.i_prediction with
                      | None -> Obs.Jsonx.Null
                      | Some b -> Obs.Jsonx.Bool b) ]))
         (Prune.Equiv_class.classes_info r)
     | None -> ());
    (* one root marker per (kind, watch) — the same notion as
       [Cluster.root_causes] but picked in the deterministic keyed
       order, so the event stream never leaks Hashtbl iteration *)
    let root_seen = Hashtbl.create 8 in
    List.iter
      (fun (skey, (rep : Cluster.report)) ->
         let root =
           let k = (rep.Cluster.kind, rep.Cluster.watch_sid) in
           if Hashtbl.mem root_seen k then false
           else begin
             Hashtbl.add root_seen k ();
             true
           end
         in
         ignore
           (Obs.Event.emit "cluster"
              ~fields:
                [ ("class", Obs.Jsonx.Str skey);
                  ("kind",
                   Obs.Jsonx.Str
                     (match rep.kind with
                      | Cluster.C_ordering -> "C-O"
                      | Cluster.C_atomicity -> "C-A"));
                  ("rule", Obs.Jsonx.Str rep.rule);
                  ("op", Obs.Jsonx.Str rep.op_desc);
                  ("watch", Obs.Jsonx.Str rep.watch_sid);
                  ("req", Obs.Jsonx.Str rep.req_sid);
                  ("count", Obs.Jsonx.Int rep.count);
                  ("crash", Obs.Jsonx.Int rep.example_crash_tid);
                  ("first_diff", Obs.Jsonx.Int rep.example_first_diff);
                  ("got", Obs.Jsonx.Str (Fmt.str "%a" Output.pp rep.example_got));
                  ("expected",
                   Obs.Jsonx.Str (Fmt.str "%a" Output.pp rep.example_expected));
                  ("crashed", Obs.Jsonx.Bool rep.crashed);
                  ("root", Obs.Jsonx.Bool root) ]))
      (Cluster.reports_keyed clusters);
    ignore
      (Obs.Event.emit "summary"
         ~fields:
           [ ("images_generated", Obs.Jsonx.Int stats.generated);
             ("images_tested", Obs.Jsonx.Int stats.tested);
             ("images_deferred", Obs.Jsonx.Int images_deferred);
             ("images_elided", Obs.Jsonx.Int images_elided);
             ("n_mismatch", Obs.Jsonx.Int !n_mismatch);
             ("n_clusters", Obs.Jsonx.Int (Cluster.n_clusters clusters));
             ("memo_hits", Obs.Jsonx.Int estats.Equiv.n_memo_hits);
             ("oracle_runs", Obs.Jsonx.Int estats.Equiv.n_oracle_runs);
             ("prune_classes", Obs.Jsonx.Int prune_classes);
             ("prune_expansions", Obs.Jsonx.Int prune_expansions) ])
  end;
  let n_loads, n_stores, n_flushes, n_fences = Nvm.Trace.stats recorded.trace in
  { name = S.name;
    n_ops = List.length ops;
    trace_len = Nvm.Trace.length recorded.trace;
    n_loads; n_stores; n_flushes; n_fences;
    n_ord_conds = Infer.n_ordering conds;
    n_atom_conds = Infer.n_atomicity conds;
    n_guardians = Infer.n_guardians conds;
    images_generated = stats.generated;
    images_tested = stats.tested;
    n_mismatch = !n_mismatch;
    n_clusters = Cluster.n_clusters clusters;
    c_o = count Cluster.C_ordering;
    c_a = count Cluster.C_atomicity;
    perf;
    bug_reports;
    site_pairs;
    all_clusters = Cluster.reports clusters;
    per_op_images = stats.per_op_images;
    op_caps = recorded.caps;
    replay_ops = estats.Equiv.n_replay_ops;
    replay_early_stops = estats.Equiv.n_early_stops;
    bytes_materialized = stats.bytes_materialized;
    oracle_runs = estats.Equiv.n_oracle_runs;
    oracle_ops_saved = estats.Equiv.n_oracle_ops_saved;
    memo_hits = estats.Equiv.n_memo_hits;
    ckpt_bytes = List.length recorded.checkpoints * recorded.pool_size;
    batch_on = cfg.batch;
    batch_fences = estats.Equiv.n_batch_fences;
    batch_images = estats.Equiv.n_batch_images;
    inherit_hits = estats.Equiv.n_inherit_hits;
    inherit_ops_saved = estats.Equiv.n_inherit_ops_saved;
    prune_policy = cfg.prune;
    prune_classes; prune_reps; images_deferred; images_elided;
    prune_expansions; seed_memo_hits; class_outcomes;
    stream_on = false; window_retirements = 0; ckpt_ring_evictions = 0;
    peak_live_words = sampled_peak_live_words ();
    t_record; t_infer; t_gen; t_equiv }

(* The bounded-memory streaming engine (DESIGN §9). Two deterministic
   passes over the same op stream, both recording into a windowed ring
   trace ([Trace.create ~ring_shift]) whose segments are recycled as the
   window slides:

   - Pass A (ingest): instrumented execution; [Infer.feed] and
     [Perf.feed] consume each event as it is appended, so by the end the
     condition set equals the batch engine's post-hoc walk (condition
     discovery only ever looks backward). Committed outputs double as the
     committed oracle, exactly as in batch. Segments a younger event
     still taint-references stay pinned (a condition spanning the window
     boundary keeps its loads alive).

   - Pass B (validate): taintless re-execution — identical event stream,
     empty dependence edges — feeding [Crash_gen.stream_feed] against the
     COMPLETE condition set; images are generated and checked at each
     fence while the workload continues. Dirty stores pin their segment
     (their payloads build crash images) until [Crash_sim] reports them
     guaranteed; the [ckpt_stride] snapshots generalize to a bounded ring
     of the [ckpt_ring] newest, so oracles resume from the nearest
     snapshot and old pools are dropped as the window slides. Expansion
     waves of the representative policy are further full passes.

   Verdict parity with [run] is by construction: both engines feed the
   same event indices in the same order to the same inference, generation
   and checking code; the window only changes which trace bytes are still
   resident, never what is computed from them. A window too small for the
   store's reference distance raises [Nvm.Trace.Retired] loudly. *)
let run_stream ?(cfg = default_cfg)
    ?(class_memo = fun (_ : string) -> None) (module S : Store_intf.S) =
  Obs.Metrics.reset Obs.Metrics.default;
  Obs.Span.clear Obs.Span.default_buf;
  Obs.Span.with_span ~attrs:[ ("store", S.name) ] "engine.run_stream"
  @@ fun () ->
  if Obs.Event.enabled () then
    ignore
      (Obs.Event.emit "run"
         ~fields:
           [ ("v", Obs.Jsonx.Int Obs.Event.version);
             ("store", Obs.Jsonx.Str S.name);
             ("seed", Obs.Jsonx.Int cfg.workload.Workload.seed);
             ("n_ops", Obs.Jsonx.Int cfg.workload.Workload.n_ops);
             ("max_images", Obs.Jsonx.Int cfg.crash.Crash_gen.max_images);
             ("policy", Obs.Jsonx.Str (Prune.Policy.name cfg.prune));
             ("stream", Obs.Jsonx.Bool true) ]);
  let ops =
    match cfg.traffic with
    | Some tc ->
      Traffic.generate_array
        (if S.supports_scan then tc else Traffic.no_scan tc)
    | None ->
      Array.of_list
        (Workload.generate
           (if S.supports_scan then cfg.workload
            else Workload.no_scan cfg.workload))
  in
  let n = Array.length ops in
  let seg_shift = cfg.stream_seg_shift in
  let window_events = cfg.stream_window lsl seg_shift in
  let pool_size = S.pool_size in
  let retirements = ref 0 in
  let evictions = ref 0 in
  let sample index =
    if index land 4095 = 0 then Obs.Metrics.sample_mem ~full:true ()
    else if index land 255 = 0 then Obs.Metrics.sample_mem ()
  in
  let ev_op index desc =
    if Obs.Event.enabled () then
      ignore
        (Obs.Event.emit "op"
           ~fields:
             [ ("op", Obs.Jsonx.Int index); ("desc", Obs.Jsonx.Str desc) ])
  in
  (* ---- pass A: instrumented ingest with incremental inference ---- *)
  let rec_t0 = Unix.gettimeofday () in
  let trace_a = Nvm.Trace.create ~ring_shift:seg_shift () in
  let conds = Infer.create () in
  let perf_st = Perf.create () in
  let (outputs, caps, perf), t_record =
    timed (fun () ->
        let pmem = Nvm.Pmem.create pool_size in
        let ctx = Nvm.Ctx.create ~trace:trace_a ~mode:Nvm.Ctx.Record pmem in
        let cursor = ref 0 in
        let feed_new () =
          let len = Nvm.Trace.length trace_a in
          for i = !cursor to len - 1 do
            Infer.feed conds trace_a i;
            Perf.feed perf_st trace_a i
          done;
          cursor := len;
          let r =
            Nvm.Trace.retire_to trace_a ~target:(len - window_events)
          in
          if r > 0 then begin
            retirements := !retirements + r;
            Obs.Metrics.incr ~n:r "stream.window_retirements"
          end
        in
        let steps = Driver.cap_steps () in
        Nvm.Ctx.op_begin ctx ~index:0 ~desc:"create";
        ev_op 0 "create";
        let store = S.create ctx in
        Nvm.Ctx.op_end ctx ~index:0;
        Driver.note_op_accesses steps ~index:0 (Nvm.Ctx.op_accesses ctx);
        feed_new ();
        let outputs =
          Array.mapi
            (fun i op ->
               let index = i + 1 in
               Nvm.Ctx.op_begin ctx ~index ~desc:(Op.desc op);
               ev_op index (Op.desc op);
               let out = S.exec store op in
               Nvm.Ctx.op_end ctx ~index;
               Driver.note_op_accesses steps ~index
                 (Nvm.Ctx.op_accesses ctx);
               feed_new ();
               sample index;
               out)
            ops
        in
        Obs.Metrics.incr ~n:n "driver.record_ops";
        (outputs, Driver.caps_of_steps steps, Perf.finish perf_st))
  in
  Obs.Span.add ~name:"stage.record" ~ts:rec_t0 ~dur:t_record
    ~attrs:[ ("n_ops", string_of_int n); ("stream", "true") ] ();
  Obs.Metrics.sample_mem ~full:true ();
  let trace_len = Nvm.Trace.length trace_a in
  let n_loads, n_stores, n_flushes, n_fences = Nvm.Trace.stats trace_a in
  (* ---- shared validation plumbing (mirrors [run]) ---- *)
  let checker =
    Equiv.create ~fuel:cfg.fuel ~caps ~lazy_oracle:cfg.lazy_oracle
      ~memo:cfg.memo ~checkpoints:[] (module S : Store_intf.S) ~ops
      ~committed:outputs
  in
  (* The batch checker reads store ranges off the trace of whichever
     validation pass is live; tids are pass-invariant. *)
  let btrace = ref trace_a in
  if cfg.batch then
    Equiv.enable_batch checker
      ~addr_len:(fun tid ->
        (Nvm.Trace.addr_at !btrace tid, Nvm.Trace.len_at !btrace tid));
  let clusters = Cluster.create ~store_name:S.name in
  let n_mismatch = ref 0 in
  let op_desc_of k = if k = 0 then "create" else Op.desc ops.(k - 1) in
  let op_kind_sids =
    Array.init (n + 1) (fun k ->
        Nvm.Sid.intern (Cluster.op_kind_of_desc (op_desc_of k)))
  in
  let sig_of_cand (c : Crash_gen.cand) =
    let watch, req = Crash_gen.violation_sids c.cd_viol in
    Prune.Path_sig.make ~op_kind:op_kind_sids.(c.cd_crash_op)
      ~path:c.cd_path_sig ~watch ~req
  in
  let prune_sig (image : Crash_gen.image) =
    let watch, req = Crash_gen.violation_sids image.viol in
    Prune.Path_sig.make ~op_kind:op_kind_sids.(image.crash_op)
      ~path:image.path_sig ~watch ~req
  in
  let t_equiv_acc = ref 0. in
  let prov = ref "exhaustive" in
  let slices_done : (Prune.Path_sig.t, unit) Hashtbl.t = Hashtbl.create 16 in
  (* Bug slice over the live window only: retired events are gone, and
     the events nearest the crash carry the story anyway. *)
  let emit_slice (image : Crash_gen.image) =
    let trace = !btrace in
    let watch, req = Crash_gen.violation_sids image.viol in
    let lo = Nvm.Trace.live_floor trace in
    let upto = min image.crash_tid (Nvm.Trace.length trace - 1) in
    let ranges = ref [] in
    for tid = lo to upto do
      if Nvm.Trace.kind_at trace tid = Nvm.Trace.k_store then begin
        let sid = Nvm.Trace.sid_at trace tid in
        if (sid = watch || sid = req) && List.length !ranges < 8 then begin
          let r = (Nvm.Trace.addr_at trace tid, Nvm.Trace.len_at trace tid) in
          if not (List.mem r !ranges) then ranges := r :: !ranges
        end
      end
    done;
    let overlaps addr len =
      List.exists (fun (a, l) -> Infer.overlap addr len a l) !ranges
    in
    let cap = 48 in
    let rev_entries = ref [] in
    let total = ref 0 in
    for tid = lo to upto do
      let k = Nvm.Trace.kind_at trace tid in
      if (k = Nvm.Trace.k_store || k = Nvm.Trace.k_flush)
      && overlaps (Nvm.Trace.addr_at trace tid) (Nvm.Trace.len_at trace tid)
      then begin
        incr total;
        let kind = if k = Nvm.Trace.k_store then "store" else "flush" in
        rev_entries :=
          Obs.Jsonx.List
            [ Obs.Jsonx.Int tid; Obs.Jsonx.Str kind;
              Obs.Jsonx.Str (Nvm.Sid.to_string (Nvm.Trace.sid_at trace tid));
              Obs.Jsonx.Int (Nvm.Trace.addr_at trace tid);
              Obs.Jsonx.Int (Nvm.Trace.len_at trace tid);
              Obs.Jsonx.Int (Nvm.Trace.op_at trace tid) ]
          :: !rev_entries
      end
    done;
    let rec take n l =
      if n = 0 then []
      else match l with [] -> [] | x :: r -> x :: take (n - 1) r
    in
    let entries = List.rev (take cap !rev_entries) in
    ignore
      (Obs.Event.emit "slice"
         ~fields:
           [ ("image", Obs.Jsonx.Int !Obs.Event.last_image_id);
             ("crash", Obs.Jsonx.Int image.crash_tid);
             ("entries", Obs.Jsonx.List entries);
             ("truncated", Obs.Jsonx.Bool (!total > cap)) ])
  in
  let check_image ?observe (image : Crash_gen.image) =
    let t0 = Unix.gettimeofday () in
    let memo_before = (Equiv.stats checker).Equiv.n_memo_hits in
    let inherit_before = (Equiv.stats checker).Equiv.n_inherit_hits in
    let verdict =
      Equiv.check ~digest:image.digest ~fence:image.crash_tid
        ~extras:image.extras checker ~img:image.img ~crash_op:image.crash_op
    in
    t_equiv_acc := !t_equiv_acc +. (Unix.gettimeofday () -. t0);
    (match observe with
     | None -> ()
     | Some f -> f image (verdict = Equiv.Consistent));
    if Obs.Event.enabled () then begin
      let sig_ =
        Cluster.signature ~op_kind:op_kind_sids.(image.crash_op) image
      in
      let skey = Prune.Path_sig.stable_key sig_ in
      let memo_hit = (Equiv.stats checker).Equiv.n_memo_hits > memo_before in
      let inherit_hit =
        (Equiv.stats checker).Equiv.n_inherit_hits > inherit_before
      in
      let fields =
        [ ("image", Obs.Jsonx.Int !Obs.Event.last_image_id);
          ("class", Obs.Jsonx.Str skey);
          ("consistent", Obs.Jsonx.Bool (verdict = Equiv.Consistent));
          ("memo", Obs.Jsonx.Bool memo_hit);
          ("inherit", Obs.Jsonx.Bool inherit_hit);
          ("prov", Obs.Jsonx.Str !prov) ]
        @ (match verdict with
           | Equiv.Consistent -> []
           | Equiv.Inconsistent v ->
             [ ("first_diff", Obs.Jsonx.Int v.first_diff);
               ("got", Obs.Jsonx.Str (Fmt.str "%a" Output.pp v.got));
               ("expect_committed",
                Obs.Jsonx.Str (Fmt.str "%a" Output.pp v.expect_committed));
               ("expect_rolled_back",
                Obs.Jsonx.Str (Fmt.str "%a" Output.pp v.expect_rolled_back));
               ("crashed", Obs.Jsonx.Bool v.crashed) ])
      in
      ignore (Obs.Event.emit "verdict" ~fields);
      match verdict with
      | Equiv.Inconsistent _ when not (Hashtbl.mem slices_done sig_) ->
        Hashtbl.add slices_done sig_ ();
        emit_slice image
      | _ -> ()
    end;
    (match verdict with
     | Equiv.Consistent -> ()
     | Equiv.Inconsistent _ ->
       incr n_mismatch;
       Cluster.add clusters ~image ~op_kind:op_kind_sids.(image.crash_op)
         ~verdict);
    `Continue
  in
  (* ---- pass B: taintless re-execution feeding generate + check ---- *)
  let run_pass ~decide ~pass ~on_image =
    let tr = Nvm.Trace.create ~ring_shift:seg_shift () in
    btrace := tr;
    let pmem = Nvm.Pmem.create pool_size in
    let ctx =
      Nvm.Ctx.create ~trace:tr ~taintless:true ~mode:Nvm.Ctx.Record pmem
    in
    let gen =
      Crash_gen.stream_create ~cfg:cfg.crash ~decide ~pass
        ~sig_depth:cfg.sig_depth ~trace:tr ~conds ~pool_size ~on_image ()
    in
    (* Dirty stores pin their segment (image materialization reads their
       payloads); the simulator unpins each as its fence guarantees it. *)
    Nvm.Crash_sim.set_on_guarantee gen.Crash_gen.g_sim
      (fun tid -> Nvm.Trace.unpin tr tid);
    let cursor = ref 0 in
    let feed_new () =
      let len = Nvm.Trace.length tr in
      for i = !cursor to len - 1 do
        if Nvm.Trace.kind_at tr i = Nvm.Trace.k_store then Nvm.Trace.pin tr i;
        gen.Crash_gen.g_feed i
      done;
      cursor := len;
      (* The fence-batched checker resolves its extras' store ranges off
         the trace lazily at group flush; flush any open group before
         events can retire so those lookups never chase a recycled
         segment. (Under sparse sampling a group can stay open across an
         arbitrary stretch of trace.) *)
      let target = len - window_events in
      if target > Nvm.Trace.live_floor tr then Equiv.flush_batch checker;
      let r = Nvm.Trace.retire_to tr ~target in
      if r > 0 && pass = 0 then begin
        retirements := !retirements + r;
        Obs.Metrics.incr ~n:r "stream.window_retirements"
      end
    in
    (* Checkpoint ring: flat snapshots every [ckpt_stride] ops, newest
       [ckpt_ring] kept. Checkpoints only shorten oracle replays, so
       rotation is verdict-neutral. *)
    let ckpts = ref [] in
    let n_ckpts = ref 0 in
    let take_ckpt index =
      if cfg.ckpt_stride > 0 && index mod cfg.ckpt_stride = 0 && index < n
      then begin
        ckpts := (index, Nvm.Pmem.copy pmem) :: !ckpts;
        incr n_ckpts;
        Obs.Metrics.incr ~n:pool_size "driver.ckpt_bytes";
        if !n_ckpts > cfg.ckpt_ring then begin
          let rec drop_last = function
            | [] | [ _ ] -> []
            | c :: rest -> c :: drop_last rest
          in
          ckpts := drop_last !ckpts;
          decr n_ckpts;
          if pass = 0 then begin
            incr evictions;
            Obs.Metrics.incr "stream.ckpt_ring_evictions"
          end
        end;
        Equiv.set_checkpoints checker !ckpts
      end
    in
    Nvm.Ctx.op_begin ctx ~index:0 ~desc:"create";
    let store = S.create ctx in
    Nvm.Ctx.op_end ctx ~index:0;
    feed_new ();
    let i = ref 0 in
    while !i < n && not (gen.Crash_gen.g_stopped ()) do
      let index = !i + 1 in
      Nvm.Ctx.op_begin ctx ~index ~desc:(Op.desc ops.(!i));
      let out = S.exec store ops.(!i) in
      Nvm.Ctx.op_end ctx ~index;
      (* The two passes must replay the same execution bit-for-bit; a
         store with hidden nondeterminism would silently break parity. *)
      if not (Output.equal out outputs.(!i)) then
        failwith
          (Printf.sprintf
             "Engine.run_stream: %s diverged between passes at op %d"
             S.name index);
      feed_new ();
      take_ckpt index;
      if pass = 0 then begin
        sample index;
        if index land 63 = 0 then
          Equiv.forget_before checker ~floor:(index - 1)
      end;
      incr i
    done;
    gen.Crash_gen.g_finish ()
  in
  let reg = ref None in
  let expanded_tested = ref 0 in
  let check_t0 = Unix.gettimeofday () in
  let stats, t_check =
    timed (fun () ->
        match cfg.prune with
        | Prune.Policy.Exhaustive ->
          run_pass ~decide:(fun _ -> `Test) ~pass:0 ~on_image:check_image
        | Prune.Policy.Sample stride ->
          let i = ref (-1) in
          let decide (_ : Crash_gen.cand) =
            incr i;
            if !i mod stride = 0 then begin
              prov := "sample";
              `Test
            end
            else `Defer
          in
          run_pass ~decide ~pass:0 ~on_image:check_image
        | Prune.Policy.Representative ->
          let r =
            Prune.Equiv_class.create
              ~expand:(Prune.Expand.create ~budget:cfg.expand_budget)
              ~memo:class_memo ()
          in
          reg := Some r;
          let decide (c : Crash_gen.cand) =
            match
              Prune.Equiv_class.decide r ~sig_:(sig_of_cand c)
                ~member:(c.cd_fence_tid, c.cd_key)
            with
            | `Test ->
              prov := Prune.Equiv_class.last_reason r;
              `Test
            | `Defer -> `Defer
          in
          let observe image consistent =
            Prune.Equiv_class.observe r ~sig_:(prune_sig image) ~consistent
          in
          let stats =
            run_pass ~decide ~pass:0 ~on_image:(check_image ~observe)
          in
          (* Expansion waves: each is one more deterministic validation
             pass admitting exactly the promoted members (see [run]). *)
          let tested_extra = Hashtbl.create 256 in
          let expanded_sigs = Hashtbl.create 64 in
          let next_wave () =
            let want = Hashtbl.create 256 in
            List.iter
              (fun (sig_, members) ->
                 if not (Hashtbl.mem expanded_sigs sig_) then begin
                   Hashtbl.add expanded_sigs sig_ ();
                   List.iter
                     (fun m ->
                        if not (Hashtbl.mem tested_extra m) then
                          Hashtbl.replace want m ())
                     members
                 end)
              (Prune.Equiv_class.promoted_deferred r);
            want
          in
          let wave = ref (next_wave ()) in
          let tails = Hashtbl.create 16 in
          List.iter
            (fun (_sig, m) ->
               if not (Hashtbl.mem tested_extra m) then begin
                 Hashtbl.replace !wave m ();
                 Hashtbl.replace tails m ()
               end)
            (Prune.Equiv_class.tail_spots r);
          let pass = ref 0 in
          while Hashtbl.length !wave > 0 do
            incr pass;
            let want = !wave in
            let decide (c : Crash_gen.cand) =
              let m = (c.cd_fence_tid, c.cd_key) in
              if Hashtbl.mem want m then begin
                Hashtbl.replace tested_extra m ();
                prov :=
                  (if Hashtbl.mem tails m then "tail"
                   else "wave:" ^ string_of_int !pass);
                `Test
              end
              else `Defer
            in
            let remaining = ref (Hashtbl.length want) in
            let on_image image =
              ignore (check_image ~observe image);
              decr remaining;
              if !remaining = 0 then `Stop else `Continue
            in
            let stats_w = run_pass ~decide ~pass:!pass ~on_image in
            expanded_tested := !expanded_tested + stats_w.Crash_gen.tested;
            stats.Crash_gen.tested <-
              stats.Crash_gen.tested + stats_w.Crash_gen.tested;
            stats.Crash_gen.bytes_materialized <-
              stats.Crash_gen.bytes_materialized
              + stats_w.Crash_gen.bytes_materialized;
            wave := next_wave ()
          done;
          stats)
  in
  Equiv.flush_batch checker;
  let t_equiv = !t_equiv_acc in
  let t_gen = Float.max 0. (t_check -. t_equiv) in
  Obs.Span.add ~name:"stage.gen" ~ts:check_t0 ~dur:t_gen
    ~attrs:[ ("images_generated", string_of_int stats.generated);
             ("images_tested", string_of_int stats.tested) ] ();
  Obs.Span.add ~name:"stage.equiv" ~ts:(check_t0 +. t_gen)
    ~dur:(Float.max 0. (t_check -. t_gen)) ();
  let estats = Equiv.stats checker in
  let bug_reports = Cluster.root_causes clusters in
  let site_pairs = Cluster.site_pairs clusters in
  List.iter
    (fun (r : Cluster.report) ->
       Hashtbl.remove perf.Perf.p_u.sites (Nvm.Sid.intern r.watch_sid);
       Hashtbl.remove perf.Perf.p_u.sites (Nvm.Sid.intern r.req_sid))
    site_pairs;
  let count kind =
    List.length
      (List.filter (fun (r : Cluster.report) -> r.kind = kind) bug_reports)
  in
  let prune_classes, prune_reps, prune_expansions, seed_memo_hits,
      class_outcomes =
    match !reg with
    | Some r ->
      ( Prune.Equiv_class.n_classes r, Prune.Equiv_class.n_reps r,
        Prune.Equiv_class.n_promoted r, Prune.Equiv_class.n_memo_hits r,
        Prune.Equiv_class.outcomes r )
    | None -> (0, 0, 0, 0, [])
  in
  let images_deferred = stats.deferred in
  let images_elided = stats.deferred - !expanded_tested in
  if cfg.prune <> Prune.Policy.Exhaustive then begin
    Obs.Metrics.incr ~n:prune_classes "prune.classes";
    Obs.Metrics.incr ~n:prune_reps "prune.reps";
    Obs.Metrics.incr ~n:images_elided "prune.images_elided";
    Obs.Metrics.incr ~n:prune_expansions "prune.expansions";
    Obs.Metrics.incr ~n:seed_memo_hits "prune.seed_memo_hits"
  end;
  (* End-of-run forensics, mirroring [run]: `class`/`cluster` events so
     `witcher explain` and the -v footer read streaming logs identically. *)
  if Obs.Event.enabled () then begin
    (match !reg with
     | Some r ->
       List.iter
         (fun (ci : Prune.Equiv_class.info) ->
            ignore
              (Obs.Event.emit "class"
                 ~fields:
                   [ ("class", Obs.Jsonx.Str ci.i_skey);
                     ("op_kind",
                      Obs.Jsonx.Str
                        (Nvm.Sid.to_string ci.i_sig.Prune.Path_sig.op_kind));
                     ("path", Obs.Jsonx.Int ci.i_sig.Prune.Path_sig.path);
                     ("watch",
                      Obs.Jsonx.Str
                        (Nvm.Sid.to_string ci.i_sig.Prune.Path_sig.watch));
                     ("req",
                      Obs.Jsonx.Str
                        (Nvm.Sid.to_string ci.i_sig.Prune.Path_sig.req));
                     ("members", Obs.Jsonx.Int ci.i_members);
                     ("deferred", Obs.Jsonx.Int ci.i_deferred);
                     ("spots", Obs.Jsonx.Int ci.i_spots);
                     ("promoted", Obs.Jsonx.Bool ci.i_promoted);
                     ("memo_hit", Obs.Jsonx.Bool ci.i_memo_hit);
                     ("prediction",
                      match ci.i_prediction with
                      | None -> Obs.Jsonx.Null
                      | Some b -> Obs.Jsonx.Bool b) ]))
         (Prune.Equiv_class.classes_info r)
     | None -> ());
    let root_seen = Hashtbl.create 8 in
    List.iter
      (fun (skey, (rep : Cluster.report)) ->
         let root =
           let k = (rep.Cluster.kind, rep.Cluster.watch_sid) in
           if Hashtbl.mem root_seen k then false
           else begin
             Hashtbl.add root_seen k ();
             true
           end
         in
         ignore
           (Obs.Event.emit "cluster"
              ~fields:
                [ ("class", Obs.Jsonx.Str skey);
                  ("kind",
                   Obs.Jsonx.Str
                     (match rep.kind with
                      | Cluster.C_ordering -> "C-O"
                      | Cluster.C_atomicity -> "C-A"));
                  ("rule", Obs.Jsonx.Str rep.rule);
                  ("op", Obs.Jsonx.Str rep.op_desc);
                  ("watch", Obs.Jsonx.Str rep.watch_sid);
                  ("req", Obs.Jsonx.Str rep.req_sid);
                  ("count", Obs.Jsonx.Int rep.count);
                  ("crash", Obs.Jsonx.Int rep.example_crash_tid);
                  ("first_diff", Obs.Jsonx.Int rep.example_first_diff);
                  ("got", Obs.Jsonx.Str (Fmt.str "%a" Output.pp rep.example_got));
                  ("expected",
                   Obs.Jsonx.Str (Fmt.str "%a" Output.pp rep.example_expected));
                  ("crashed", Obs.Jsonx.Bool rep.crashed);
                  ("root", Obs.Jsonx.Bool root) ]))
      (Cluster.reports_keyed clusters);
    ignore
      (Obs.Event.emit "summary"
         ~fields:
           [ ("images_generated", Obs.Jsonx.Int stats.generated);
             ("images_tested", Obs.Jsonx.Int stats.tested);
             ("images_deferred", Obs.Jsonx.Int images_deferred);
             ("images_elided", Obs.Jsonx.Int images_elided);
             ("n_mismatch", Obs.Jsonx.Int !n_mismatch);
             ("n_clusters", Obs.Jsonx.Int (Cluster.n_clusters clusters));
             ("window_retirements", Obs.Jsonx.Int !retirements);
             ("ckpt_ring_evictions", Obs.Jsonx.Int !evictions) ])
  end;
  { name = S.name;
    n_ops = n;
    trace_len;
    n_loads; n_stores; n_flushes; n_fences;
    n_ord_conds = Infer.n_ordering conds;
    n_atom_conds = Infer.n_atomicity conds;
    n_guardians = Infer.n_guardians conds;
    images_generated = stats.generated;
    images_tested = stats.tested;
    n_mismatch = !n_mismatch;
    n_clusters = Cluster.n_clusters clusters;
    c_o = count Cluster.C_ordering;
    c_a = count Cluster.C_atomicity;
    perf;
    bug_reports;
    site_pairs;
    all_clusters = Cluster.reports clusters;
    per_op_images = stats.per_op_images;
    op_caps = caps;
    replay_ops = estats.Equiv.n_replay_ops;
    replay_early_stops = estats.Equiv.n_early_stops;
    bytes_materialized = stats.bytes_materialized;
    oracle_runs = estats.Equiv.n_oracle_runs;
    oracle_ops_saved = estats.Equiv.n_oracle_ops_saved;
    memo_hits = estats.Equiv.n_memo_hits;
    ckpt_bytes = (min cfg.ckpt_ring ((max 1 n) / max 1 cfg.ckpt_stride)) * pool_size;
    batch_on = cfg.batch;
    batch_fences = estats.Equiv.n_batch_fences;
    batch_images = estats.Equiv.n_batch_images;
    inherit_hits = estats.Equiv.n_inherit_hits;
    inherit_ops_saved = estats.Equiv.n_inherit_ops_saved;
    prune_policy = cfg.prune;
    prune_classes; prune_reps; images_deferred; images_elided;
    prune_expansions; seed_memo_hits; class_outcomes;
    stream_on = true;
    window_retirements = !retirements;
    ckpt_ring_evictions = !evictions;
    peak_live_words = sampled_peak_live_words ();
    t_record; t_infer = 0.; t_gen; t_equiv }
