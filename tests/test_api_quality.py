"""API-quality gates: every public item documented, catalogs consistent,
the public surface importable."""

import importlib
import inspect
import pkgutil

import pytest

import repro

_PACKAGES = [
    "repro",
    "repro.core",
    "repro.hardware",
    "repro.kernels",
    "repro.graph",
    "repro.frameworks",
    "repro.models",
    "repro.data",
    "repro.training",
    "repro.distributed",
    "repro.profiling",
    "repro.experiments",
    "repro.tensor",
    "repro.observability",
    "repro.engine",
    "repro.bench",
    "repro.tune",
    "repro.schedule",
    "repro.faults",
    "repro.conformance",
]


def _all_modules():
    modules = []
    for package_name in _PACKAGES:
        package = importlib.import_module(package_name)
        modules.append(package)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                modules.append(
                    importlib.import_module(f"{package_name}.{info.name}")
                )
    return {module.__name__: module for module in modules}.values()


class TestDocumentation:
    def test_every_module_has_a_docstring(self):
        undocumented = [
            module.__name__ for module in _all_modules() if not module.__doc__
        ]
        assert not undocumented, f"modules without docstrings: {undocumented}"

    def test_every_public_class_and_function_documented(self):
        undocumented = []
        for module in _all_modules():
            for name, obj in vars(module).items():
                if name.startswith("_"):
                    continue
                if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue  # re-export; documented at its home
                if not inspect.getdoc(obj):
                    undocumented.append(f"{module.__name__}.{name}")
        assert not undocumented, f"undocumented public items: {undocumented}"

    def test_public_methods_documented(self):
        undocumented = []
        for module in _all_modules():
            for class_name, cls in vars(module).items():
                if class_name.startswith("_") or not inspect.isclass(cls):
                    continue
                if getattr(cls, "__module__", None) != module.__name__:
                    continue
                for method_name, method in vars(cls).items():
                    if method_name.startswith("_"):
                        continue
                    if not inspect.isfunction(method):
                        continue
                    if not inspect.getdoc(method):
                        undocumented.append(
                            f"{module.__name__}.{class_name}.{method_name}"
                        )
        assert not undocumented, f"undocumented methods: {undocumented}"


class TestPublicSurface:
    def test_top_level_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_package_all_lists_resolve(self):
        for package_name in _PACKAGES:
            package = importlib.import_module(package_name)
            for name in getattr(package, "__all__", ()):
                assert hasattr(package, name), f"{package_name}.{name}"
            # A name no package exports still fails, lazy hooks or not.
            assert not hasattr(package, "nosuch"), package_name
            with pytest.raises(ImportError):
                exec(f"from {package_name} import nosuch", {})

    def test_version_string(self):
        parts = repro.__version__.split(".")
        assert len(parts) == 3
        assert all(part.isdigit() for part in parts)


class TestCatalogConsistency:
    def test_model_frameworks_all_resolvable(self):
        from repro.frameworks.registry import get_framework
        from repro.models.registry import extension_catalog, model_catalog

        for spec in list(model_catalog().values()) + list(extension_catalog().values()):
            for key in spec.frameworks:
                get_framework(key)

    def test_model_datasets_all_resolvable(self):
        from repro.data.registry import get_dataset
        from repro.models.registry import extension_catalog, model_catalog

        for spec in list(model_catalog().values()) + list(extension_catalog().values()):
            get_dataset(spec.dataset)

    def test_fig2_models_exist_in_registry(self):
        from repro.models.registry import get_model
        from repro.training.convergence import FIG2_MODELS

        for key in FIG2_MODELS:
            get_model(key)

    def test_hyperparameter_defaults_cover_the_suite(self):
        from repro.models.registry import model_keys
        from repro.training.hyperparams import defaults_for

        for key in model_keys():
            defaults_for(key)
