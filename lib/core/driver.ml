(* Runs a store against a test case in three modes:

   - [record]: instrumented run producing the trace and the committed
     outputs (these double as the "committed" oracle for every crash
     point, §4.4).
   - [run_quiet]: uninstrumented run for rolled-back oracles.
   - [resume]: attach to a crash NVM image, run recovery and the suffix of
     the test case; any visible failure (simulated segfault, fuel
     exhaustion, corrupt pool) marks the remaining outputs [Crashed].
     Every unit of replayed work (recovery, each op) runs under its own
     access budget ([cap_at]), derived from what the recording
     needed: a runaway replay is declared a livelock after a bounded
     multiple of a real operation's work.

   Operation indices in the trace: index 0 is store creation, index k >= 1
   is [ops.(k - 1)]. *)

open Nvm

(* Per-op replay budgets: the hang detector. The paper declares a
   post-crash run that never finishes a visible crash after a timeout;
   here a replayed op (or the recovery before it) that needs more than
   [cap j] accesses is a livelock. With [a i] the accesses trace op [i]
   executed while recording,

     cap j = max cap_floor (cap_factor * max (a 0) .. (a j))

   A multiple of the largest op so far, not of op [j] itself, because a
   crash image can legitimately send a cheap op down a longer path (a
   resize the recording ran earlier); a prefix maximum, not the global
   one, keeps the derivation a function of the ops before [j], which the
   streaming engine knows when it reaches [j]. The factor leaves room for
   replays that do somewhat more than the recording did — level-hash at
   2000 ops replays up to 12,730 accesses for a recorded maximum of
   12,671 — and the floor covers recovery on small pools. Both are fixed:
   a correct replay never comes near the cap, so no workload needs to
   tune it.

   [cap] is a step function that rises at a handful of ops, so [caps]
   keeps only its steps: [(j, cap j)] where it rises, ascending, the
   first at op 0. The empty array bounds nothing. *)
let cap_factor = 64
let cap_floor = 65_536

type caps = (int * int) array

let cap_at (caps : caps) j =
  (* the last step at or before [j] *)
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fst caps.(mid) <= j then go mid hi else go lo mid
  in
  if Array.length caps = 0 || fst caps.(0) > j then max_int
  else snd caps.(go 0 (Array.length caps))

(* Recording side: feed every op's access count, in op order. *)
type cap_steps = { mutable steps : (int * int) list }  (* newest first *)

let cap_steps () = { steps = [] }

let note_op_accesses r ~index accesses =
  let cap = max cap_floor (cap_factor * accesses) in
  match r.steps with
  | (_, c) :: _ when c >= cap -> ()
  | steps -> r.steps <- (index, cap) :: steps

let caps_of_steps r : caps = Array.of_list (List.rev r.steps)

type recorded = {
  ops : Op.t array;
  outputs : Output.t array;
  trace : Trace.t;
  pool_size : int;
  final_image : string;  (* snapshot after the full run *)
  checkpoints : (int * Pmem.t) list;
  (* (op index, flat pool snapshot after that op), ascending; every
     checkpointed pool is immutable and reusable across oracle runs *)
  caps : caps;  (* per-op replay budgets, see [cap_at] *)
}

let record ?(ckpt_stride = 0) ?(boxed = false) ?events_hint
    (module S : Store_intf.S) ops =
  let ops = Array.of_list ops in
  let n = Array.length ops in
  let pmem = Pmem.create S.pool_size in
  let ctx = Ctx.create ~boxed ?events_hint ~mode:Record pmem in
  let ev_op index desc =
    if Obs.Event.enabled () then
      ignore
        (Obs.Event.emit "op"
           ~fields:
             [ ("op", Obs.Jsonx.Int index); ("desc", Obs.Jsonx.Str desc) ])
  in
  let steps = cap_steps () in
  Ctx.op_begin ctx ~index:0 ~desc:"create";
  ev_op 0 "create";
  let store = S.create ctx in
  Ctx.op_end ctx ~index:0;
  note_op_accesses steps ~index:0 (Ctx.op_accesses ctx);
  let checkpoints = ref [] in
  let outputs =
    Array.mapi
      (fun i op ->
         let index = i + 1 in
         Ctx.op_begin ctx ~index ~desc:(Op.desc op);
         ev_op index (Op.desc op);
         let out = S.exec store op in
         Ctx.op_end ctx ~index;
         note_op_accesses steps ~index (Ctx.op_accesses ctx);
         (* Checkpoints must be flat copies: the record pool keeps
            mutating, so an O(1) COW view here would alias live bytes. *)
         if ckpt_stride > 0 && index mod ckpt_stride = 0 && index < n then begin
           checkpoints := (index, Pmem.copy pmem) :: !checkpoints;
           Obs.Metrics.incr ~n:S.pool_size "driver.ckpt_bytes";
           if Obs.Event.enabled () then
             ignore
               (Obs.Event.emit "ckpt" ~fields:[ ("op", Obs.Jsonx.Int index) ])
         end;
         out)
      ops
  in
  Obs.Metrics.incr ~n:(Array.length ops) "driver.record_ops";
  { ops; outputs; trace = Ctx.trace ctx; pool_size = S.pool_size;
    final_image = Pmem.snapshot pmem; checkpoints = List.rev !checkpoints;
    caps = caps_of_steps steps }

(* Uninstrumented execution of an arbitrary op list; used for rolled-back
   oracles. Must be deterministic w.r.t. [record] modulo the removed op.
   The pool is an O(1) zeroed COW view: it reads exactly like a fresh
   [Pmem.create] pool and costs only the lines the run writes. *)
let run_quiet (module S : Store_intf.S) ops =
  Obs.Metrics.incr "driver.quiet_runs";
  let pmem = Pmem.zeroed S.pool_size in
  let ctx = Ctx.create ~mode:Quiet pmem in
  let store = S.create ctx in
  Array.of_list (List.map (S.exec store) ops)

(* Rolled-back oracle from a record-time checkpoint: resume (open +
   recover) a COW view of the pool state after op [from_op], replay trace
   ops [from_op + 1 .. n] skipping [skip], and return the outputs of ops
   [skip + 1 .. n] — O(n - from_op) store ops instead of the O(n) full
   re-run. The checkpointed image is fully consistent (all ops up to
   [from_op] committed cleanly), so recovery must behave exactly like the
   uninterrupted run; any exception here is a driver-level failure the
   caller handles by falling back to [run_quiet]. *)
let oracle_from_checkpoint (module S : Store_intf.S) ~checkpoint ~ops ~from_op
    ~skip =
  let n = Array.length ops in
  Obs.Metrics.incr "driver.ckpt_resumes";
  let ctx = Ctx.create ~mode:Quiet (Pmem.cow checkpoint) in
  let store = S.open_ ctx in
  let out = Array.make (n - skip) Output.Ok in
  for idx = from_op + 1 to n do
    if idx <> skip then begin
      let o = S.exec store ops.(idx - 1) in
      if idx > skip then out.(idx - skip - 1) <- o
    end
  done;
  out

(* A resumed execution runs over a possibly corrupted image: any exception
   it raises — simulated segfault, livelock fuel, corrupt metadata tripping
   OCaml runtime checks — is a visible crash, which the paper counts as a
   detected inconsistency. *)
let describe_failure = function
  | Pmem.Fault f -> Printf.sprintf "segfault@%d+%d" f.addr f.len
  | Ctx.Fuel_exhausted site -> "livelock@" ^ site
  | Pmdk.Pool.Corrupt_pool m -> "corrupt-pool:" ^ m
  | Pmdk.Alloc.Out_of_memory -> "heap-exhausted"
  | Pmdk.Tx.Log_full -> "tx-log-full"
  | Stack_overflow -> "stack-overflow"
  | e -> "exception:" ^ Printexc.to_string e

(* Resume from a crash image: open + recover, then run ops with trace
   indices [from_op + 1 .. n], streaming each output through [on_output]
   as soon as it is available. [on_output i out] may return [`Stop] to
   abort the replay — the incremental equivalence checker uses this to
   cut a replay short the moment both oracles are ruled out, so an
   inconsistent image costs O(first divergence) instead of O(suffix).

   A visible failure (simulated segfault, fuel exhaustion, corrupt pool)
   marks every remaining output [Crashed] without executing anything
   further; those backfilled outputs still stream through [on_output].

   Budgets: the replayed op with trace index [j] may execute
   [cap_at caps j] accesses, and recovery — or, on a pool whose creation
   never became durable, the re-creation that stands in for it —
   [cap_at caps from_op]; [fuel] caps the whole resume, and is all that
   bounds it with [caps = [||]].

   Returns the number of operations the replay actually attempted to
   execute (the crashing op counts: its work was done). The accesses the
   replay executed go to the [driver.replay_accesses] counter, and a
   replay whose op or recovery ran out of budget counts in
   [driver.fuel_exhausted].

   [?read_track] logs the word range of every NVM read into the given
   set. The fence-batched checker uses it to prove two same-fence images
   replay identically: the fresh pool built on the [Corrupt_pool] path is
   image-independent, but we track it too — a superset read set only
   makes inheritance more conservative, never unsound. *)
let resume_stream ?read_track ?(caps = [||]) (module S : Store_intf.S) ~image
    ~ops ~from_op ~fuel
    ~(on_output : int -> Output.t -> [ `Continue | `Stop ]) =
  let n = Array.length ops in
  let suffix_len = n - from_op in
  let executed = ref 0 in
  Obs.Metrics.incr "driver.resumes";
  (* accesses executed so far, over every context this resume used (the
     corrupt-pool fallback replaces the first one) *)
  let spent = ref 0 in
  (* Arm [ctx] with trace op [j]'s budget, clipped to what is left of
     the resume's [fuel]; [settle] books what the unit executed. *)
  let arm ctx j =
    let budget = min (cap_at caps j) (fuel - !spent) in
    Ctx.set_fuel ctx budget;
    budget
  in
  let settle ctx budget = spent := !spent + budget - Ctx.fuel ctx in
  let quiet pmem =
    let ctx = Ctx.create ~mode:Quiet pmem in
    Ctx.set_read_track ctx read_track;
    ctx
  in
  let failure e =
    (match e with
     | Ctx.Fuel_exhausted _ -> Obs.Metrics.incr "driver.fuel_exhausted"
     | _ -> ());
    describe_failure e
  in
  let fail_from i msg =
    let out = Output.Crashed msg in
    let rec go i =
      if i < suffix_len then
        match on_output i out with `Stop -> () | `Continue -> go (i + 1)
    in
    go i
  in
  let start pmem f =
    let ctx = quiet pmem in
    let budget = arm ctx from_op in
    match f ctx with
    | store -> settle ctx budget; `Store (store, ctx)
    | exception e -> settle ctx budget; raise e
  in
  let opened =
    try start image S.open_ with
    | Pmdk.Pool.Corrupt_pool _ ->
      (* The crash predates pool initialization: the magic never became
         durable. A real deployment re-creates the pool file, which is the
         rolled-back behaviour for the creation op. *)
      (try start (Pmem.zeroed S.pool_size) S.create
       with e -> `Err (failure e))
    | e -> `Err (failure e)
  in
  (match opened with
   | `Err msg -> fail_from 0 msg
   | `Store (store, ctx) ->
     let rec go i =
       if i < suffix_len then begin
         incr executed;
         let budget = arm ctx (from_op + i + 1) in
         match S.exec store ops.(from_op + i) with
         | out ->
           settle ctx budget;
           (match on_output i out with `Stop -> () | `Continue -> go (i + 1))
         | exception e ->
           settle ctx budget;
           fail_from i (failure e)
       end
     in
     go 0);
  Obs.Metrics.incr ~n:!spent "driver.replay_accesses";
  !executed

(* Full replay into an array: [resume_stream] with no early abort.
   Returns exactly [n - from_op] outputs. *)
let resume ?caps (module S : Store_intf.S) ~image ~ops ~from_op ~fuel =
  let suffix_len = max (Array.length ops - from_op) 0 in
  let results = Array.make (max suffix_len 1) (Output.Crashed "unreached") in
  ignore
    (resume_stream ?caps (module S) ~image ~ops ~from_op ~fuel
       ~on_output:(fun i out -> results.(i) <- out; `Continue));
  Array.sub results 0 suffix_len
