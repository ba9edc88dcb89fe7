import numpy as np

from riskchoice import (
    GeneratorConfig,
    generate_dataset,
    design_matrix,
    fit_logistic,
    split,
    accuracy,
    auc,
)
from riskchoice.features import SYMBOLIC_NAMES, RAW_NAMES
from riskchoice.glm import sigmoid

cfg = GeneratorConfig(n=8000, seed=11)
arrays = generate_dataset(cfg)
train, test = split(arrays, train_frac=0.8, seed=0)

y_train = train.choice.astype(float)
y_test = test.choice.astype(float)

for label, names in (("symbolic", SYMBOLIC_NAMES), ("raw black-box", RAW_NAMES)):
    X = design_matrix(train, names)
    model = fit_logistic(X, y_train, feature_names=names)
    print(f"{label} fit: converged={model.converged} in {model.iterations} iterations")
    for name, coef, se in zip(names, model.coeffs, model.std_errors):
        print(f"  {name:<10} {coef:+9.4f}  (SE {se:.4f})")
    probs = sigmoid(design_matrix(test, names) @ model.coeffs)
    print(f"  test accuracy {accuracy(probs, y_test):.4f}, AUC {auc(probs, y_test):.4f}\n")

# the symbolic design matches the generator, so its coefficients should sit
# near the generating values
X = design_matrix(arrays, SYMBOLIC_NAMES)
full = fit_logistic(X, arrays.choice.astype(float), feature_names=SYMBOLIC_NAMES)
print("full-sample symbolic coefficients vs generating values:")
for name, coef, true in zip(SYMBOLIC_NAMES, full.coeffs, cfg.true_coeffs):
    print(f"  {name:<10} fitted {coef:+8.4f}   true {true:+.2f}")
