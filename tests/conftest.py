import hypothesis

hypothesis.settings.register_profile(
    "pkg", deadline=None, derandomize=True, max_examples=80)
# the differential tests at depth: python -m pytest tests/test_roots.py tests/test_exact_poly.py --hypothesis-profile=deep
hypothesis.settings.register_profile(
    "deep", deadline=None, derandomize=True, max_examples=1000)
hypothesis.settings.load_profile("pkg")
