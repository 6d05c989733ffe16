"""From-scratch numpy ML substrate.

The original CatDB generates pipelines against scikit-learn.  This package
is a self-contained replacement implementing the estimators, transformers,
metrics and model-selection utilities those generated pipelines need, with
an sklearn-flavoured ``fit`` / ``predict`` / ``transform`` API.
"""

from repro.ml.base import BaseEstimator, ClassifierMixin, RegressorMixin, TransformerMixin, clone
from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.forest import RandomForestClassifier, RandomForestRegressor
from repro.ml.linear import LinearRegression, LogisticRegression, Ridge
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    f1_score,
    log_loss,
    mean_absolute_error,
    mean_squared_error,
    precision_score,
    r2_score,
    recall_score,
    roc_auc_score,
    root_mean_squared_error,
)
from repro.ml.model_selection import (
    GridSearchCV,
    KFold,
    RandomizedSearchCV,
    StratifiedKFold,
    cross_val_score,
    train_test_split,
)
from repro.ml.naive_bayes import GaussianNB
from repro.ml.neighbors import KNeighborsClassifier, KNeighborsRegressor, TabPFNProxy
from repro.ml.pipeline import ColumnSelector, Pipeline, TableVectorizer
from repro.ml.svm import LinearSVC
from repro.ml.preprocessing import (
    FeatureHasher,
    KHotEncoder,
    LabelEncoder,
    MinMaxScaler,
    OneHotEncoder,
    OrdinalEncoder,
    QuantileClipper,
    RobustScaler,
    SimpleImputer,
    StandardScaler,
)
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor

__all__ = [
    "BaseEstimator",
    "ClassifierMixin",
    "RegressorMixin",
    "TransformerMixin",
    "clone",
    "GradientBoostingClassifier",
    "GradientBoostingRegressor",
    "LinearSVC",
    "RandomForestClassifier",
    "RandomForestRegressor",
    "LinearRegression",
    "LogisticRegression",
    "Ridge",
    "accuracy_score",
    "confusion_matrix",
    "f1_score",
    "log_loss",
    "mean_absolute_error",
    "mean_squared_error",
    "precision_score",
    "r2_score",
    "recall_score",
    "roc_auc_score",
    "root_mean_squared_error",
    "GridSearchCV",
    "KFold",
    "RandomizedSearchCV",
    "StratifiedKFold",
    "cross_val_score",
    "train_test_split",
    "GaussianNB",
    "KNeighborsClassifier",
    "KNeighborsRegressor",
    "TabPFNProxy",
    "ColumnSelector",
    "Pipeline",
    "TableVectorizer",
    "FeatureHasher",
    "KHotEncoder",
    "LabelEncoder",
    "MinMaxScaler",
    "OneHotEncoder",
    "OrdinalEncoder",
    "QuantileClipper",
    "RobustScaler",
    "SimpleImputer",
    "StandardScaler",
    "DecisionTreeClassifier",
    "DecisionTreeRegressor",
]
