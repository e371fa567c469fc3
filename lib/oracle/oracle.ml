module Floatx = Mdl_util.Floatx
module Vec = Mdl_sparse.Vec
module Coo = Mdl_sparse.Coo
module Csr = Mdl_sparse.Csr
module Partition = Mdl_partition.Partition
module Ctmc = Mdl_ctmc.Ctmc
module Mrp = Mdl_ctmc.Mrp
module Solver = Mdl_ctmc.Solver
module Measures = Mdl_ctmc.Measures
module Check = Mdl_lumping.Check
module State_lumping = Mdl_lumping.State_lumping
module Quotient = Mdl_lumping.Quotient
module Md = Mdl_md.Md
module Decomposed = Mdl_core.Decomposed
module Compositional = Mdl_core.Compositional

let log_src = Logs.Src.create "mdl.oracle" ~doc:"differential lumping oracle"

module Log = (val Logs.src_log log_src : Logs.LOG)

type mode = State_lumping.mode = Ordinary | Exact

type outcome = {
  model : string;
  mode : mode;
  violations : Invariants.violation list;
  checks : string list;
  skipped : (string * string) list;
  states : int;
  lumped_states : int;
  flat_classes : int;
}

let ok o = o.violations = []

let mode_string = function Ordinary -> "ordinary" | Exact -> "exact"

let pp_outcome ppf o =
  Format.fprintf ppf "@[<v>%s (%s): %d states -> %d lumped (flat coarsest: %d)"
    o.model (mode_string o.mode) o.states o.lumped_states o.flat_classes;
  List.iter
    (fun (c, r) -> Format.fprintf ppf "@,  skipped %s: %s" c r)
    (List.rev o.skipped);
  List.iter
    (fun v -> Format.fprintf ppf "@,  VIOLATION %a" Invariants.pp_violation v)
    o.violations;
  Format.fprintf ppf "@]"

(* Absolute tolerance for solved-measure comparisons; the solvers run at
   1e-12, so anything past 1e-6 is a genuine disagreement, not noise. *)
let measure_tol = 1e-6

let tuple_of sizes idx =
  let l = Array.length sizes in
  let t = Array.make l 0 in
  let rem = ref idx in
  for i = l - 1 downto 0 do
    t.(i) <- !rem mod sizes.(i);
    rem := !rem / sizes.(i)
  done;
  t

(* Multiply the middle stored entry of [m] by [1 + factor] — the
   deliberate fault for sanity mode.  None if [m] has no entries. *)
let perturb factor m =
  let nnz = Csr.nnz m in
  if nnz = 0 then None
  else begin
    let target = nnz / 2 in
    let coo = Coo.create ~rows:(Csr.rows m) ~cols:(Csr.cols m) in
    let k = ref 0 in
    Csr.iter
      (fun i j v ->
        Coo.add coo i j (if !k = target then v *. (1.0 +. factor) else v);
        incr k)
      m;
    Some (Csr.of_coo coo)
  end

let check_md ?(eps = Floatx.default_eps) ?inject ?pool ?par_threshold mode md0 =
  let violations = ref [] in
  let checks = ref [] in
  let skipped = ref [] in
  let violate check fmt =
    Printf.ksprintf
      (fun detail -> violations := { Invariants.check; detail } :: !violations)
      fmt
  in
  let ran name = checks := name :: !checks in
  let skip name reason = skipped := (name, reason) :: !skipped in
  let import prefix vs =
    List.iter
      (fun (v : Invariants.violation) ->
        violations := { v with check = prefix ^ v.check } :: !violations)
      vs
  in
  ran "invariants(input)";
  import "input " (Invariants.md ~eps md0);

  let sizes = Md.sizes md0 in
  let levels = Array.length sizes in
  let n = Md.potential_space_size md0 in
  let flat = Md.to_csr md0 in

  (* Protected measure: "substate of the last level is 0" — a decomposed
     reward the ordinary lumping must keep computable. *)
  let reward_d =
    Decomposed.of_level ~sizes ~level:levels (fun s -> if s = 0 then 1.0 else 0.0)
  in
  let rvec = Array.init n (fun s -> Decomposed.eval reward_d (tuple_of sizes s)) in
  let rewards =
    match mode with
    | Ordinary -> [ reward_d ]
    | Exact -> [ Decomposed.constant ~sizes 0.0 ]
  in
  let initial = Decomposed.constant ~sizes 1.0 in
  let result = Compositional.lump ~eps ?pool ?par_threshold mode md0 ~rewards ~initial in
  ran "invariants(lumped)";
  import "lumped " (Invariants.md ~eps result.Compositional.lumped);

  (* The production path (key cache, ranked pipeline, memos, incremental
     rebuild) against the reference lumper, which shares none of it. *)
  ran "reference-agreement";
  let reference = Reference_lump.lump ~eps mode md0 ~rewards ~initial in
  let classes r =
    String.concat "/"
      (Array.to_list
         (Array.map
            (fun p -> string_of_int (Partition.num_classes p))
            r.Compositional.partitions))
  in
  if
    not
      (Array.for_all2 Partition.equal result.Compositional.partitions
         reference.Compositional.partitions)
  then
    violate "reference-agreement"
      "level partitions (%s classes) differ from the reference lumper's (%s)"
      (classes result) (classes reference)
  else if not (Md.equal result.Compositional.lumped reference.Compositional.lumped) then
    violate "reference-agreement"
      "lumped diagram differs from the reference lumper's from-scratch rebuild";

  let partitions = result.Compositional.partitions in
  let csizes = Array.map Partition.num_classes partitions in
  let nc = Array.fold_left ( * ) 1 csizes in
  (* class tuple index (mixed radix — the lumped MD's flat indexing) *)
  let ci =
    let cache = Array.make n (-1) in
    fun s ->
      if cache.(s) >= 0 then cache.(s)
      else begin
        let t = tuple_of sizes s in
        let acc = ref 0 in
        for l = 0 to levels - 1 do
          acc := (!acc * csizes.(l)) + Partition.class_of partitions.(l) t.(l)
        done;
        cache.(s) <- !acc;
        !acc
      end
  in
  let gp = Partition.of_class_assignment (Array.init n ci) in

  (* Theorems 3/4: the induced global partition is lumpable on the flat
     chain, literally per Theorem 1. *)
  ran "theorem-lumpable";
  let thm_ok =
    match mode with
    | Ordinary -> Check.ordinary ~eps ~rewards:rvec flat gp
    | Exact -> Check.exact ~eps flat gp
  in
  if not thm_ok then
    violate "theorem-lumpable"
      "per-level partitions do not induce a globally %s-lumpable partition"
      (mode_string mode);

  (* Quotient agreement: flattened lumped MD = Theorem-2 quotient of the
     flat matrix, through the class correspondence. *)
  let lumped_flat0 = Md.to_csr result.Compositional.lumped in
  let lumped_flat =
    match inject with
    | None -> lumped_flat0
    | Some factor -> (
        match perturb factor lumped_flat0 with
        | Some m -> m
        | None ->
            skip "inject" "lumped matrix has no entries to perturb";
            lumped_flat0)
  in
  ran "quotient-agreement";
  let quotient = Quotient.rates mode flat gp in
  (try
     for s = 0 to n - 1 do
       for s' = 0 to n - 1 do
         let a = Csr.get lumped_flat (ci s) (ci s') in
         let b = Csr.get quotient (Partition.class_of gp s) (Partition.class_of gp s') in
         if not (Floatx.approx_eq ~eps a b) then begin
           violate "quotient-agreement"
             "lumped MD entry (%d,%d) = %.12g but flat quotient has %.12g" (ci s)
             (ci s') a b;
           raise Exit
         end
       done
     done
   with Exit -> ());

  (* The flat optimum: the compositional partition may be finer (the
     local keys are only sufficient) but must refine it — and the flat
     algorithm's own output must satisfy Theorem 1. *)
  ran "flat-coarsest";
  let initial_p =
    (* Quantized keys: group_by needs a total order, which the
       non-transitive compare_approx is not. *)
    match mode with
    | Ordinary -> Partition.group_by n (fun s -> Floatx.quantize rvec.(s)) Float.compare
    | Exact ->
        Partition.group_by n
          (fun s -> Floatx.quantize (Csr.row_sum flat s))
          Float.compare
  in
  let p_star = State_lumping.coarsest ~eps mode flat ~initial:initial_p in
  let star_ok =
    match mode with
    | Ordinary -> Check.ordinary ~eps ~rewards:rvec flat p_star
    | Exact -> Check.exact ~eps flat p_star
  in
  if not star_ok then
    violate "flat-coarsest" "State_lumping.coarsest output fails the Theorem-1 check";
  ran "refinement";
  if not (Partition.is_refinement_of gp p_star) then
    violate "refinement"
      "compositional global partition (%d classes) does not refine the flat coarsest (%d classes)"
      (Partition.num_classes gp) (Partition.num_classes p_star);
  if levels = 1 then begin
    ran "single-level-equality";
    if not (Partition.equal partitions.(0) p_star) then
      violate "single-level-equality"
        "1-level compositional partition (%d classes) <> flat coarsest (%d classes)"
        (Partition.num_classes partitions.(0))
        (Partition.num_classes p_star)
  end;

  (* Numerical measures: original vs compositionally lumped chain. *)
  let ctmc = Ctmc.of_rates flat in
  if not (Ctmc.is_irreducible ctmc) then
    skip "measures" "flat chain not irreducible"
  else if Ctmc.max_exit_rate ctmc <= 0.0 then skip "measures" "flat chain has no transitions"
  else begin
    let lumped_ctmc = Ctmc.of_rates lumped_flat in
    let pi, st = Solver.steady_state ~tol:1e-12 ~max_iter:500_000 ctmc in
    let pi_l, st_l = Solver.steady_state ~tol:1e-12 ~max_iter:500_000 lumped_ctmc in
    if not (st.Solver.converged && st_l.Solver.converged) then
      skip "stationary-agreement" "power iteration did not converge"
    else begin
      ran "stationary-agreement";
      let agg = Array.make nc 0.0 in
      for s = 0 to n - 1 do
        agg.(ci s) <- agg.(ci s) +. pi.(s)
      done;
      let d = Vec.diff_inf agg pi_l in
      if d > measure_tol then
        violate "stationary-agreement"
          "aggregated stationary vs lumped stationary differ by %.3g" d;
      (match mode with
      | Ordinary ->
          ran "reward-agreement";
          let r_flat = Solver.expected_reward pi rvec in
          let lumped_reward = Compositional.lumped_rewards result reward_d in
          let rvec_l =
            Array.init nc (fun ct -> Decomposed.eval lumped_reward (tuple_of csizes ct))
          in
          let r_lumped = Solver.expected_reward pi_l rvec_l in
          if Float.abs (r_flat -. r_lumped) > measure_tol then
            violate "reward-agreement"
              "protected reward %.12g on the original vs %.12g on the lumped chain"
              r_flat r_lumped
      | Exact ->
          ran "equiprobable-lift";
          let volume =
            let v = Array.make nc 0 in
            for s = 0 to n - 1 do
              v.(ci s) <- v.(ci s) + 1
            done;
            v
          in
          (try
             for s = 0 to n - 1 do
               let lifted = pi_l.(ci s) /. float_of_int volume.(ci s) in
               if Float.abs (pi.(s) -. lifted) > measure_tol then begin
                 violate "equiprobable-lift"
                   "state %d: stationary %.12g but class-uniform lift gives %.12g" s
                   pi.(s) lifted;
                 raise Exit
               end
             done
           with Exit -> ()))
    end;
    (* Transient distributions through uniformisation. *)
    ran "transient-agreement";
    let pi0 = Array.make n (1.0 /. float_of_int n) in
    let ft = Solver.transient ~t:0.8 ctmc pi0 in
    let pi0_l = Array.make nc 0.0 in
    for s = 0 to n - 1 do
      pi0_l.(ci s) <- pi0_l.(ci s) +. pi0.(s)
    done;
    let lt = Solver.transient ~t:0.8 lumped_ctmc pi0_l in
    let agg_t = Array.make nc 0.0 in
    for s = 0 to n - 1 do
      agg_t.(ci s) <- agg_t.(ci s) +. ft.(s)
    done;
    let d = Vec.diff_inf agg_t lt in
    if d > measure_tol then
      violate "transient-agreement" "aggregated transient vs lumped transient differ by %.3g" d;
    (* Measures on MRPs through the flat Theorem-2 quotient. *)
    ran "mrp-measures";
    let mrp = Mrp.make ~ctmc ~rewards:rvec ~initial:(Mrp.uniform_initial n) in
    let mrp_star = Quotient.mrp mode mrp p_star in
    let ss_flat = Measures.steady_state_reward ~tol:1e-12 ~max_iter:500_000 mrp in
    let ss_star = Measures.steady_state_reward ~tol:1e-12 ~max_iter:500_000 mrp_star in
    if Float.abs (ss_flat -. ss_star) > measure_tol then
      violate "mrp-measures" "steady-state reward %.12g vs flat-quotient %.12g" ss_flat
        ss_star;
    let tr_flat = Measures.transient_reward ~t:0.6 mrp in
    let tr_star = Measures.transient_reward ~t:0.6 mrp_star in
    if Float.abs (tr_flat -. tr_star) > measure_tol then
      violate "mrp-measures" "transient reward %.12g vs flat-quotient %.12g" tr_flat
        tr_star
  end;
  {
    model = Printf.sprintf "md(levels=%d, states=%d)" levels n;
    mode;
    violations = List.rev !violations;
    checks = List.rev !checks;
    skipped = !skipped;
    states = n;
    lumped_states = nc;
    flat_classes = Partition.num_classes p_star;
  }

let check_chain ?eps ?inject ?pool ?par_threshold mode r =
  check_md ?eps ?inject ?pool ?par_threshold mode (Gen_chain.md_of_csr r)

let run ?eps ?inject ?pool ?par_threshold mode spec =
  let md = Gen_md.of_spec spec in
  let o =
    { (check_md ?eps ?inject ?pool ?par_threshold mode md) with model = Spec.to_string spec }
  in
  Log.debug (fun m ->
      m "%s (%s): %d checks, %d violations" o.model (mode_string o.mode)
        (List.length o.checks) (List.length o.violations));
  o
