from asckit import errors


def test_one_class_per_kind_of_fault():
    assert set(errors.AscKitError.__subclasses__()) == {
        errors.IOFailure, errors.ShapeMismatch, errors.ConfigMismatch}
    assert [name for name, value in vars(errors).items() if isinstance(value, type)] == [
        "AscKitError", "IOFailure", "ShapeMismatch", "ConfigMismatch"]
