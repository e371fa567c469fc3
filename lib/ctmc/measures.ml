let steady_state_reward ?tol ?max_iter mrp =
  let pi, _stats = Solver.steady_state ?tol ?max_iter (Mrp.ctmc mrp) in
  Solver.expected_reward pi (Mrp.rewards mrp)

let transient_reward ?epsilon ~t mrp =
  let pi = Solver.transient ?epsilon ~t (Mrp.ctmc mrp) (Mrp.initial mrp) in
  Solver.expected_reward pi (Mrp.rewards mrp)

let accumulated_reward ?epsilon ~t ?(steps = 64) mrp =
  if steps <= 0 then invalid_arg "Measures.accumulated_reward: steps must be positive";
  if t < 0.0 then invalid_arg "Measures.accumulated_reward: negative horizon";
  if t = 0.0 then 0.0
  else begin
    let h = t /. float_of_int steps in
    let value_at tk = transient_reward ?epsilon ~t:tk mrp in
    let acc = ref ((value_at 0.0 +. value_at t) /. 2.0) in
    for k = 1 to steps - 1 do
      acc := !acc +. value_at (h *. float_of_int k)
    done;
    !acc *. h
  end
