"""Pipeline code generation — what the simulated LLM "writes".

Given the parsed prompt payload (dataset info, projected schema, rules),
this module emits a complete, runnable Python pipeline script against
:mod:`repro.table` / :mod:`repro.ml`.  The quality of the emitted code
*depends on what the prompt contains*, exactly like a real LLM:

- columns absent from the prompt's schema are not used;
- missing-value handling is only emitted when the prompt exposes
  missing-value metadata or an imputation rule (otherwise the code either
  drops incomplete rows or ignores the problem, by model quality);
- categorical encodings degrade to ordinal codes when the prompt lacks
  distinct-value/categorical metadata;
- numeric columns are normalized/clipped only when statistics are present;
- without model-selection rules, weak models may fall back to a slow
  exhaustive grid search (the Llama behaviour in Table 8).

The emitted script defines ``run_pipeline(train, test)`` returning a
metrics dict; :mod:`repro.generation.executor` runs it.
"""

from __future__ import annotations

import pprint
from typing import Any

from repro.llm.profiles import LLMProfile
from repro.llm.rand import stable_hash, weighted_pick

__all__ = ["generate_pipeline_code", "build_encoding_plan", "choose_model"]


def _schema_by_name(payload: dict[str, Any]) -> dict[str, dict[str, Any]]:
    entries = list(payload.get("previous_schema", [])) + list(payload.get("schema", []))
    by_name: dict[str, dict[str, Any]] = {}
    for entry in entries:
        by_name[entry["name"]] = entry
    return by_name


def _rules_by_kind(payload: dict[str, Any]) -> dict[str, dict[str, Any]]:
    return {rule["kind"]: rule for rule in payload.get("rules", [])}


def build_encoding_plan(
    payload: dict[str, Any], profile: LLMProfile, salt: int
) -> tuple[dict[str, dict[str, Any]], list[str], list[str]]:
    """Derive (plan, features, dropped) from the prompt contents.

    Returns the per-column encoding plan, the feature list the pipeline
    will use, and the columns it explicitly drops.
    """
    dataset = payload.get("dataset", {})
    target = dataset.get("target")
    schema = _schema_by_name(payload)
    rules = _rules_by_kind(payload)
    impute_rule = rules.get("impute_missing")
    normalize_rule = rules.get("normalize")
    clip_rule = rules.get("clip_outliers")

    plan: dict[str, dict[str, Any]] = {}
    features: list[str] = []
    dropped: list[str] = []
    for name, entry in schema.items():
        if name == target:
            continue
        feature_type = entry.get("feature_type", "")
        if not feature_type:
            # schema-only prompts (AIDE-style) leave the model to guess the
            # feature type from the physical data type
            data_type = entry.get("data_type", "number")
            feature_type = {
                "string": "Categorical",
                "boolean": "Boolean",
            }.get(data_type, "Numerical")
        if feature_type in ("Constant", "Id"):
            dropped.append(name)
            continue
        missing_pct = entry.get("missing_percentage")
        has_missing_info = missing_pct is not None
        spec: dict[str, Any]
        if feature_type == "List":
            spec = {
                "encode": "khot",
                "delimiter": entry.get("list_delimiter", ","),
                "max_items": 64,
            }
        elif feature_type == "Sentence":
            spec = {"encode": "hash", "n_features": 16}
        elif feature_type == "Boolean":
            spec = {"encode": "ordinal"}
        elif feature_type == "Categorical":
            has_cat_info = bool(entry.get("categorical_values")) or (
                entry.get("distinct_count") is not None
            )
            if has_cat_info:
                distinct = entry.get("distinct_count") or len(
                    entry.get("categorical_values") or []
                )
                if distinct and distinct > 64:
                    spec = {"encode": "hash", "n_features": 32}
                else:
                    spec = {"encode": "onehot", "max_categories": 50}
            elif entry.get("data_type") == "number":
                # prompt gave no categorical evidence: model treats the
                # 7-distinct-integers column as plain numeric (the paper's
                # motivating mistake in Section 3.4)
                spec = _numeric_spec(
                    entry, impute_rule, normalize_rule, clip_rule,
                    has_missing_info, profile, salt,
                )
            else:
                spec = {"encode": "ordinal"}
        else:  # Numerical (or unknown)
            spec = _numeric_spec(
                entry, impute_rule, normalize_rule, clip_rule,
                has_missing_info, profile, salt,
            )
        plan[name] = spec
        features.append(name)
    return plan, features, dropped


def _numeric_spec(
    entry: dict[str, Any],
    impute_rule: dict[str, Any] | None,
    normalize_rule: dict[str, Any] | None,
    clip_rule: dict[str, Any] | None,
    has_missing_info: bool,
    profile: LLMProfile,
    salt: int,
) -> dict[str, Any]:
    spec: dict[str, Any] = {"encode": "numeric"}
    missing_pct = entry.get("missing_percentage") or 0.0
    if impute_rule is not None or (has_missing_info and missing_pct > 0):
        params = (impute_rule or {}).get("params", {})
        spec["impute"] = params.get("strategy_numeric", "median")
    else:
        # no guidance: a good model still imputes defensively, a weak one
        # leaves NaN handling to chance (drop-rows marker consumed by the
        # script emitter below)
        choice = weighted_pick(
            ["median", "drop_rows", "none"],
            [profile.code_quality, 0.6 * (1 - profile.code_quality) + 0.2, 0.4 * (1 - profile.code_quality)],
            "impute-default", entry.get("name"), profile.name, salt,
        )
        spec["impute"] = choice
    has_stats = bool(entry.get("statistics"))
    spec["scale"] = bool(normalize_rule) or has_stats
    if clip_rule is not None and has_stats:
        spec["clip_outliers"] = True
    return spec


_CLASSIFIER_CHOICES = [
    ("GradientBoostingClassifier", "GradientBoostingClassifier(n_estimators=40, max_depth=3, random_state=0)", 0.95),
    ("RandomForestClassifier", "RandomForestClassifier(n_estimators=60, max_depth=12, random_state=0)", 0.92),
    ("RandomForestClassifier", "RandomForestClassifier(n_estimators=30, max_depth=8, random_state=0)", 0.80),
    ("LogisticRegression", "LogisticRegression(max_iter=200)", 0.70),
    ("LinearSVC", "LinearSVC(max_iter=20, random_state=0)", 0.68),
    ("DecisionTreeClassifier", "DecisionTreeClassifier(max_depth=8, random_state=0)", 0.55),
]

_REGRESSOR_CHOICES = [
    ("GradientBoostingRegressor", "GradientBoostingRegressor(n_estimators=80, max_depth=3, random_state=0)", 0.95),
    ("RandomForestRegressor", "RandomForestRegressor(n_estimators=60, max_depth=12, random_state=0)", 0.92),
    ("RandomForestRegressor", "RandomForestRegressor(n_estimators=30, max_depth=8, random_state=0)", 0.80),
    ("Ridge", "Ridge(alpha=1.0)", 0.65),
    ("LinearRegression", "LinearRegression()", 0.55),
]


def choose_model(
    payload: dict[str, Any], profile: LLMProfile, salt: int
) -> tuple[str, str, bool]:
    """Pick (class_name, constructor_expr, uses_grid_search)."""
    dataset = payload.get("dataset", {})
    task_type = dataset.get("task_type", "binary")
    rules = _rules_by_kind(payload)
    guided = "model_selection" in rules
    choices = _REGRESSOR_CHOICES if task_type == "regression" else _CLASSIFIER_CHOICES
    # guided prompts concentrate probability mass on strong options
    quality = profile.code_quality if guided else profile.code_quality * 0.8
    weights = []
    for _name, _ctor, strength in choices:
        distance = abs(strength - quality)
        weights.append(max(0.02, 1.0 - 2.0 * distance))
    name, ctor, _ = weighted_pick(
        choices, weights, "model-choice", profile.name, dataset.get("name"), salt
    )
    grid_probability = 0.0 if guided else profile.grid_search_tendency
    use_grid = (
        stable_hash("grid", profile.name, dataset.get("name"), salt) % 1000
        < grid_probability * 1000
    )
    return name, ctor, bool(use_grid)


def generate_pipeline_code(
    payload: dict[str, Any], profile: LLMProfile, salt: int = 0
) -> str:
    """Emit the full pipeline script for a prompt payload."""
    dataset = payload.get("dataset", {})
    target = dataset.get("target", "target")
    task_type = dataset.get("task_type", "binary")
    rules = _rules_by_kind(payload)
    plan, features, dropped = build_encoding_plan(payload, profile, salt)

    drop_row_columns = [
        name for name, spec in plan.items() if spec.get("impute") == "drop_rows"
    ]
    for name in drop_row_columns:
        # train rows with gaps are dropped; median-impute protects the test
        # split, which must not lose rows
        plan[name] = {**plan[name], "impute": "median"}
    for name, spec in plan.items():
        if spec.get("impute") == "none":
            # the model ignored missing values: NaN flows to the estimator
            plan[name] = {**spec, "impute": None}

    rebalance = "rebalance" in rules and task_type != "regression"
    augment = "augment_small" in rules and task_type != "regression"
    model_name, model_ctor, use_grid = choose_model(payload, profile, salt)

    is_classification = task_type != "regression"
    imports = {
        "TableVectorizer",
        model_name,
        "accuracy_score" if is_classification else "r2_score",
    }
    if is_classification:
        imports.add("roc_auc_score")
    if use_grid:
        imports.add("GridSearchCV")

    lines: list[str] = []
    lines.append('"""Auto-generated data-centric ML pipeline.')
    lines.append("")
    lines.append(f"Dataset: {dataset.get('name', '?')} | task: {task_type} | target: {target}")
    lines.append(f"Generated by simulated LLM profile: {profile.name}")
    lines.append('"""')
    lines.append("import numpy as np")
    lines.append("")
    lines.append(f"from repro.ml import {', '.join(sorted(imports))}")
    if rebalance:
        lines.append("from repro.ml.augment import oversample_minority")
    if augment:
        lines.append("from repro.ml.augment import gaussian_augment")
    if drop_row_columns:
        lines.append("from repro.table.ops import drop_missing_rows")
    lines.append("")
    lines.append(f"TARGET = {target!r}")
    lines.append(f"FEATURES = {pprint.pformat(features, width=88)}")
    lines.append(f"DROP_COLUMNS = {pprint.pformat(sorted(set(dropped)), width=88)}")
    lines.append(f"PLAN = {pprint.pformat(plan, width=88, sort_dicts=True)}")
    lines.append("")
    lines.append("")
    lines.append("def run_pipeline(train, test):")
    lines.append('    """Train on `train`, evaluate on both splits, return metrics."""')
    lines.append("    train = train.select([c for c in FEATURES + [TARGET] if c in train])")
    lines.append("    test = test.select([c for c in FEATURES + [TARGET] if c in test])")
    lines.append("    # rows without a label cannot be used for supervised training")
    lines.append("    train = train.filter_mask(~train[TARGET].missing)")
    lines.append("    test = test.filter_mask(~test[TARGET].missing)")
    if drop_row_columns:
        lines.append(f"    train = drop_missing_rows(train, subset={drop_row_columns!r})")
    lines.append("    vectorizer = TableVectorizer(plan=PLAN, target=TARGET)")
    lines.append("    X_train = vectorizer.fit_transform(train)")
    lines.append("    X_test = vectorizer.transform(test)")
    if is_classification:
        lines.append("    y_train = np.asarray([str(v) for v in train[TARGET]], dtype=object)")
        lines.append("    y_test = np.asarray([str(v) for v in test[TARGET]], dtype=object)")
    else:
        lines.append("    y_train = train[TARGET].astype_numeric().numeric_values()")
        lines.append("    y_test = test[TARGET].astype_numeric().numeric_values()")
    if rebalance:
        lines.append("    X_train, y_train = oversample_minority(X_train, y_train, random_state=0)")
    if augment:
        lines.append("    if X_train.shape[0] < 500:")
        lines.append("        X_train, y_train = gaussian_augment(X_train, y_train, random_state=0)")
    if use_grid:
        lines.append(f"    base_model = {model_ctor}")
        grid = _grid_for(model_name)
        lines.append(f"    model = GridSearchCV(base_model, {grid}, cv=3)")
    else:
        lines.append(f"    model = {model_ctor}")
    lines.append("    model.fit(X_train, y_train)")
    lines.append("    train_pred = model.predict(X_train)")
    lines.append("    test_pred = model.predict(X_test)")
    if is_classification:
        lines.append("    metrics = {")
        lines.append('        "train_accuracy": accuracy_score(y_train, train_pred),')
        lines.append('        "test_accuracy": accuracy_score(y_test, test_pred),')
        lines.append("    }")
        lines.append("    try:")
        lines.append("        labels = model.classes_")
        lines.append("        train_proba = model.predict_proba(X_train)")
        lines.append("        test_proba = model.predict_proba(X_test)")
        lines.append('        metrics["train_auc"] = roc_auc_score(y_train, train_proba, labels=labels)')
        lines.append('        metrics["test_auc"] = roc_auc_score(y_test, test_proba, labels=labels)')
        lines.append("    except (AttributeError, ValueError):")
        lines.append('        metrics["train_auc"] = metrics["train_accuracy"]')
        lines.append('        metrics["test_auc"] = metrics["test_accuracy"]')
    else:
        lines.append("    metrics = {")
        lines.append('        "train_r2": r2_score(y_train, train_pred),')
        lines.append('        "test_r2": r2_score(y_test, test_pred),')
        lines.append("    }")
    lines.append('    metrics["model"] = type(model).__name__')
    lines.append('    metrics["n_features"] = X_train.shape[1]')
    lines.append("    return metrics")
    lines.append("")
    return "\n".join(lines)


def _grid_for(model_name: str) -> str:
    """Hyper-parameter grid expression for the naive-grid-search fallback."""
    if "Forest" in model_name:
        return "{'n_estimators': [20, 40, 80], 'max_depth': [4, 8, 12]}"
    if "Boosting" in model_name:
        return "{'n_estimators': [20, 40, 80], 'learning_rate': [0.05, 0.1, 0.2]}"
    if "Tree" in model_name:
        return "{'max_depth': [4, 6, 8, 12]}"
    if model_name == "Ridge":
        return "{'alpha': [0.1, 1.0, 10.0]}"
    return "{'max_iter': [100, 200, 400]}"
