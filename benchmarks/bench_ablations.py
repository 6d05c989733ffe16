"""Ablations of CatDB's design choices (DESIGN.md commitments).

Not a paper artifact; quantifies the mechanisms the paper argues for:

- **knowledge base on/off** — local patches save LLM error-prompt tokens;
- **error-correction budget (tau_2)** — more repair attempts reduce
  fallback usage;
- **chain count (beta)** — chains trade tokens for wide-schema robustness.
"""

from benchmarks.conftest import QUICK, save_result
from repro.experiments.common import format_table, prepare_dataset
from repro.generation.generator import CatDB, CatDBChain
from repro.llm.mock import MockLLM

_SEEDS = range(6)


def _stressed_llm(seed: int) -> MockLLM:
    return MockLLM("llama3.1-70b", seed=seed, error_rate_multiplier=3.0)


def test_ablation_knowledge_base(benchmark):
    prepared = prepare_dataset("cmc", quick=QUICK)

    def run():
        rows = []
        for use_kb in (True, False):
            error_tokens = kb_fixes = llm_fixes = successes = 0
            for seed in _SEEDS:
                generator = CatDB(
                    _stressed_llm(seed), use_knowledge_base=use_kb,
                    max_fix_attempts=5,
                )
                report = generator.generate(
                    prepared.train, prepared.test, prepared.catalog,
                    iteration=seed,
                )
                error_tokens += report.cost.error_cost()
                kb_fixes += report.kb_fixes
                llm_fixes += report.llm_fixes
                successes += int(report.success)
            rows.append({
                "kb": use_kb, "successes": successes,
                "kb_fixes": kb_fixes, "llm_fixes": llm_fixes,
                "error_tokens": error_tokens,
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = format_table(
        ["knowledge base", "successes", "kb fixes", "llm fixes", "error tokens"],
        [[("on" if r["kb"] else "off"), r["successes"], r["kb_fixes"],
          r["llm_fixes"], r["error_tokens"]] for r in rows],
        title="Ablation: knowledge base on/off (stressed llama profile)",
    )
    save_result("ablation_knowledge_base", rendered)

    with_kb, without_kb = rows
    # with the KB enabled, any KB-patchable error is fixed locally...
    assert with_kb["successes"] >= without_kb["successes"] - 1
    # ...so the KB run never spends MORE LLM fixes than the ablated run
    if with_kb["kb_fixes"] > 0:
        assert with_kb["llm_fixes"] <= without_kb["llm_fixes"]


def test_ablation_repair_budget(benchmark):
    prepared = prepare_dataset("cmc", quick=QUICK)

    def run():
        rows = []
        for tau_2 in (0, 1, 3, 6):
            fallbacks = successes = 0
            for seed in _SEEDS:
                generator = CatDB(_stressed_llm(seed), max_fix_attempts=tau_2)
                report = generator.generate(
                    prepared.train, prepared.test, prepared.catalog,
                    iteration=seed,
                )
                fallbacks += int(report.fallback_used)
                successes += int(report.success)
            rows.append({"tau_2": tau_2, "fallbacks": fallbacks,
                         "successes": successes})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = format_table(
        ["tau_2 (max repair attempts)", "fallbacks used", "successes"],
        [[r["tau_2"], r["fallbacks"], r["successes"]] for r in rows],
        title="Ablation: error-correction budget",
    )
    save_result("ablation_repair_budget", rendered)

    # the hand-crafted fallback guarantees success regardless of budget...
    assert all(r["successes"] == len(list(_SEEDS)) for r in rows)
    # ...but larger budgets need the fallback less
    assert rows[-1]["fallbacks"] <= rows[0]["fallbacks"]


def test_ablation_zero_shot_vs_few_shot(benchmark):
    """Zero-shot ICL vs few-shot examples (Section 1 design decision)."""
    from repro.generation.executor import execute_pipeline_code
    from repro.llm.base import extract_code_block
    from repro.prompt.builder import build_prompt_plan

    prepared = prepare_dataset("cmc", quick=QUICK)

    def run():
        rows = []
        for k in (0, 2, 4):
            plan = build_prompt_plan(prepared.catalog, beta=1, few_shot=k)
            llm = MockLLM("gpt-4o", fault_injection=False)
            response = llm.complete(plan.single.text)
            code = extract_code_block(response.content)
            result = execute_pipeline_code(code, prepared.train, prepared.test)
            rows.append({
                "few_shot": k,
                "prompt_tokens": response.prompt_tokens,
                "metric": result.primary_metric if result.success else None,
            })
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = format_table(
        ["few-shot examples", "prompt tokens", "test metric"],
        [[r["few_shot"], r["prompt_tokens"],
          f"{100 * r['metric']:.1f}" if r["metric"] is not None else "fail"]
         for r in rows],
        title="Ablation: zero-shot vs few-shot prompting",
    )
    save_result("ablation_few_shot", rendered)

    # few-shot examples cost tokens monotonically...
    tokens = [r["prompt_tokens"] for r in rows]
    assert tokens == sorted(tokens) and tokens[0] < tokens[-1]
    # ...without improving the grounded zero-shot pipeline's quality
    metrics = [r["metric"] for r in rows if r["metric"] is not None]
    assert metrics and max(metrics) - metrics[0] < 0.02


def test_ablation_chain_beta(benchmark):
    prepared = prepare_dataset("gas_drift", quick=QUICK)

    def run():
        rows = []
        llm = MockLLM("gpt-4o", fault_injection=False)
        single = CatDB(llm).generate(prepared.train, prepared.test,
                                     prepared.catalog)
        rows.append({"beta": 1, "tokens": single.total_tokens,
                     "metric": single.primary_metric,
                     "gamma": single.cost.gamma})
        for beta in (2, 4):
            llm = MockLLM("gpt-4o", fault_injection=False)
            chain = CatDBChain(llm, beta=beta).generate(
                prepared.train, prepared.test, prepared.catalog
            )
            rows.append({"beta": beta, "tokens": chain.total_tokens,
                         "metric": chain.primary_metric,
                         "gamma": chain.cost.gamma})
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    rendered = format_table(
        ["beta", "LLM interactions", "tokens", "test metric"],
        [[r["beta"], r["gamma"], r["tokens"],
          f"{100 * r['metric']:.1f}" if r["metric"] is not None else "fail"]
         for r in rows],
        title="Ablation: chain count beta (tokens vs quality)",
    )
    save_result("ablation_chain_beta", rendered)

    # interactions follow 2*beta + 1; tokens grow with beta
    assert [r["gamma"] for r in rows] == [1, 5, 9]
    tokens = [r["tokens"] for r in rows]
    assert tokens[0] < tokens[1] < tokens[2]
