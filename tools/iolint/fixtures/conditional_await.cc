// iolint fixture — conditional-await.
//
// g++ 12.2.0 (at -O0 and -O2) miscompiles a co_await in a condition, under
// ?:, && or ||, or applied to a conditional: each broken shape below runs
// an arm it should skip, skips a body it should run, or crashes, in a
// standalone program with its own minimal task type.  The fixed forms
// hoist the co_await into a named local; the one ?: shape that compiles
// correctly (two whole co_await arms initialising or assigned to a local)
// stays silent.
//
// Never compiled: scanned by tools/iolint/selftest.py with
// tools/iolint/fixtures/fixtures.iolint.toml.

namespace fixture {

sim::TaskOf<int> arm_a();
sim::TaskOf<int> arm_b();
void consume(int v);

// ---- broken shapes -----------------------------------------------------------

sim::TaskOf<int> both_arms_run(bool c) {
  co_return c ? co_await arm_a() : co_await arm_b();  // iolint-expect: conditional-await
}

sim::TaskOf<int> skipped_arm_runs(bool c) {
  co_return c ? co_await arm_a() : 0;  // iolint-expect: conditional-await
}

sim::Task skipped_argument_runs(bool c) {
  consume(c ? co_await arm_a() : 0);  // iolint-expect: conditional-await
}

sim::Task short_circuit_runs(bool c) {
  while (c && co_await arm_a() == 1) {  // iolint-expect: conditional-await
    consume(1);
  }
}

sim::TaskOf<int> condition_body_never_runs() {
  if (co_await arm_a()) {  // iolint-expect: conditional-await
    consume(1);
  }
  co_return 0;
}

sim::Task awaited_conditional_crashes(bool c) {
  co_await (c ? arm_a() : arm_b());  // iolint-expect: conditional-await
}

sim::Task switch_on_await() {
  switch (co_await arm_a()) {  // iolint-expect: conditional-await
    default:
      break;
  }
}

sim::TaskOf<bool> either(bool c) {
  co_return c || co_await arm_a() == 1;  // iolint-expect: conditional-await
}

sim::TaskOf<int> awaited_condition_of_select() {
  co_return (co_await arm_a()) ? 1 : 2;  // iolint-expect: conditional-await
}

sim::Task assigned_short_circuit(bool c) {
  bool ok = false;
  ok = c && co_await arm_a() == 1;  // iolint-expect: conditional-await
  consume(ok ? 1 : 0);
}

sim::Task assigned_mixed_arms(bool c) {
  const int v = c ? co_await arm_a() : 0;  // iolint-expect: conditional-await
  consume(v);
}

// ---- fixed forms (silent) -----------------------------------------------------

sim::TaskOf<int> hoisted_select(bool c) {
  const int v = c ? co_await arm_a() : co_await arm_b();
  co_return v;
}

sim::Task hoisted_condition(bool c) {
  const int r = co_await arm_a();
  if (r == 1) consume(r);
  int s = 0;
  s = c || r == 2 ? co_await arm_a() : co_await arm_b();
  consume(s);
}

sim::TaskOf<int> await_in_body_not_condition(bool c) {
  while (c && r_ready()) co_await arm_a();
  if (c) co_return co_await arm_b();
  if (!c) co_return co_await pick(c ? 1 : 2, c && r_ready());
  for (int i = 0; i < 3; ++i) consume(co_await arm_a());
  co_return c ? 1 : 0;
}

}  // namespace fixture
